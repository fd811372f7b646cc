"""Linear-ramp QAOA MaxCut simulation and statistical verification toolkit."""

__version__ = "0.6.0"

from .circuit import (
    CircuitIR,
    CostLayer,
    GateOp,
    LrQaoaParams,
    Schedule,
    build_circuit,
    build_schedule,
    circuit_to_text,
    gate_counts,
    hqc_cost,
)
from .engine import (
    Precision,
    ShotSet,
    StateVector,
    exact_expected_r,
    load_statevector,
    run_circuit,
    sample,
    save_statevector,
    zero_state,
)
from .errors import (
    AbortedRunError,
    CapacityError,
    FitError,
    StateError,
    ValidationError,
)
from .noise import (
    DepolarizingConfig,
    NoiseFit,
    epsilon_accumulated,
    fit_k0,
    noisy_expected_probs,
    noisy_expected_r,
    predict_r_overlap,
    r_overlap,
    run_noisy_ensemble,
)
from .problem import (
    OptimalCut,
    WmcInstance,
    approximation_ratio,
    cut_value,
    generate_instance,
    load_instance,
    optimal_cut_bruteforce,
    random_baseline_expectation,
    save_instance,
    shot_ratios,
    solve_instance,
)
from .sharded import (
    ShardPlan,
    SweepConfig,
    TimingRecord,
    exchange_volume,
    plan_for_shard_count,
    plan_shards,
    run_circuit_sharded,
    scaling_sweep,
    write_timing_csv,
)
from .stats import (
    MeanOfMeans,
    Regime,
    RegimeReport,
    ResampleConfig,
    classify,
    kde_curve,
    mean_of_means,
    random_threshold,
    uniform_sampler,
)
