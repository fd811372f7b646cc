import functools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lrqbench

from lrqbench import (
    AbortedRunError,
    CapacityError,
    CircuitIR,
    CostLayer,
    GateOp,
    LrQaoaParams,
    Precision,
    StateError,
    StateVector,
    ValidationError,
    build_circuit,
    exact_expected_r,
    gate_counts,
    generate_instance,
    load_instance,
    run_circuit,
    sample,
    save_instance,
    save_statevector,
    solve_instance,
    load_statevector,
    zero_state,
)
from lrqbench.engine import (
    check_memory,
    expected_r_from_probs,
    state_bytes,
)
from lrqbench import engine, problem
from lrqbench.problem import CutDiagonal, index_to_bitstring
from lrqbench.sharded import _workers, plan_for_shard_count, plan_shards, run_circuit_sharded
from lrqbench.rng import derive_rng

import oracles


def random_state(n: int, seed: int) -> np.ndarray:
    """A random unit state, normalized by numpy's pairwise sum (no BLAS,
    whose dot changes its bits with the thread count)."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.sqrt((amps.real**2 + amps.imag**2).sum())


def run_gates(amps: np.ndarray, gates, n: int | None = None, frame: int | None = None) -> None:
    """``gates`` as one gate run on ``amps``: a state of n qubits (by
    default its size's), or a flat batch of them, in the S-dagger frame on
    the qubits ``frame``, entered before and left after.  By default that
    is a circuit of this run alone's (``engine._layer_plan``): the qubits
    that carry an RX and no H."""
    n = amps.size.bit_length() - 1 if n is None else n
    if frame is None:
        rx, h = ({g.qubits[0] for g in gates if g.kind == kind} for kind in ("RX", "H"))
        frame = sum(1 << q for q in rx - h)
    matrices = engine._group_matrices(gates, n, amps.dtype)
    products = tuple((q, engine._framed(m, frame >> q & ((1 << w) - 1))) for (q, w), m in matrices.items())
    engine._change_frame(amps, 0, frame)
    engine._apply_gate_run(amps, engine._GateRun(n, products))
    engine._change_frame(amps, frame, 0)


def plus_state(n: int, precision: str) -> StateVector:
    """An H on every qubit of |0...0>, run as gates: with no cost layer
    after them, the executors do not fold them."""
    return run_circuit(CircuitIR(n, [GateOp("H", (q,)) for q in range(n)]), precision)


def test_zero_and_plus_states():
    sv = zero_state(3, "fp64")
    assert sv.amps[0] == 1.0 and np.all(sv.amps[1:] == 0.0)
    plus = plus_state(4, "fp32")
    assert plus.amps.dtype == np.complex64
    np.testing.assert_allclose(plus.amps, np.full(16, 0.25), rtol=1e-6)
    assert plus.norm_squared() == pytest.approx(1.0, abs=plus.norm_tolerance())


def test_precision_coerce():
    assert Precision.coerce("fp32") is Precision.FP32
    assert Precision.coerce(Precision.FP64) is Precision.FP64
    with pytest.raises(ValidationError):
        Precision.coerce("fp16")


@pytest.mark.parametrize("q", [0, 1, 2])
def test_h_matches_matrix(q):
    start = random_state(3, 10 + q)
    amps = start.copy()
    run_gates(amps, (GateOp("H", (q,)),))
    want = oracles.embed_single(oracles.HADAMARD, q, 3) @ start
    np.testing.assert_allclose(amps, want, atol=1e-12)


@pytest.mark.parametrize("q,theta", [(0, 0.7), (1, -1.3), (2, 2.9)])
def test_rx_matches_expm(q, theta):
    start = random_state(3, 20 + q)
    amps = start.copy()
    run_gates(amps, (GateOp("RX", (q,), theta),))
    want = oracles.gate_unitary(GateOp("RX", (q,), theta), 3) @ start
    np.testing.assert_allclose(amps, want, atol=1e-12)


def apply_rzz(amps: np.ndarray, n: int, theta: float, qa: int, qb: int) -> None:
    """RZZ(theta) in place, as a cost layer of one gate."""
    layer = CostLayer(n, (GateOp("RZZ", (qa, qb), theta),))
    engine._apply_cost_layer(amps, engine._CostPhase(layer))


@pytest.mark.parametrize("qa,qb,theta", [(0, 1, 0.4), (0, 2, -0.9), (1, 2, 2.2), (2, 0, 1.1)])
def test_rzz_matches_expm(qa, qb, theta):
    start = random_state(3, 30 + qa * 3 + qb)
    amps = start.copy()
    apply_rzz(amps, 3, theta, qa, qb)
    want = oracles.gate_unitary(GateOp("RZZ", (qa, qb), theta), 3) @ start
    np.testing.assert_allclose(amps, want, atol=1e-12)


def test_rzz_pi_on_plus_plus():
    sv = plus_state(2, "fp64")
    apply_rzz(sv.amps, 2, np.pi, 0, 1)
    np.testing.assert_allclose(sv.amps, [-0.5j, 0.5j, 0.5j, -0.5j], atol=1e-15)


def test_rzz_qubit_order_irrelevant():
    start = random_state(4, 5)
    a, b = start.copy(), start.copy()
    apply_rzz(a, 4, 0.8, 1, 3)
    apply_rzz(b, 4, 0.8, 3, 1)
    np.testing.assert_array_equal(a, b)


def test_rzz_layer_order_irrelevant():
    # a full cost layer is diagonal, so any gate order gives the same state
    inst = generate_instance(6, 21)
    start = random_state(6, 6)
    fwd, rev = start.copy(), start.copy()
    gates = [GateOp("RZZ", (i, j), 0.3 * w) for i, j, w in inst.edges]
    for g in gates:
        apply_rzz(fwd, 6, g.theta, *g.qubits)
    for g in reversed(gates):
        apply_rzz(rev, 6, g.theta, *g.qubits)
    np.testing.assert_allclose(fwd, rev, atol=1e-12)


def test_gate_validation():
    # a gate the engines cannot run is refused where the circuit is built
    with pytest.raises(ValidationError):
        CircuitIR(2, [GateOp("H", (2,))])
    with pytest.raises(ValidationError):
        GateOp("RZZ", (0, 0), 0.1)
    with pytest.raises(ValidationError):
        CircuitIR(2, [GateOp("RX", (-1,), 0.1)])


@pytest.mark.parametrize("n,p,seed", [(2, 1, 0), (4, 2, 1), (5, 3, 2)])
def test_run_circuit_matches_matrix_product(n, p, seed):
    inst = generate_instance(n, seed)
    circ = build_circuit(inst, LrQaoaParams(p=p))
    got = run_circuit(circ, "fp64")
    want = oracles.final_state(circ)
    assert np.max(np.abs(got.amps - want)) < 1e-12


@pytest.mark.parametrize("executor", ["_apply_cost_layer", "_apply_gate_run"])
def test_fault_in_a_dense_step_aborts_the_run(monkeypatch, executor):
    # a dense run is the step loop on one slab, which aborts as a sharded one does
    circ = build_circuit(generate_instance(6, 0), LrQaoaParams(p=1))

    def broken(*args):
        raise RuntimeError("injected kernel fault")

    monkeypatch.setattr(engine, executor, broken)
    with pytest.raises(AbortedRunError, match="injected kernel fault") as exc:
        run_circuit(circ, "fp64")
    assert "shard" not in str(exc.value)
    assert isinstance(exc.value.__cause__, RuntimeError)


def kernel_of_0_2(amps: np.ndarray, gate: GateOp) -> None:
    """The H and RX kernels of 0.2.0: copy the lower half, assign both."""
    v = amps.reshape(-1, 2, 1 << gate.qubits[0])
    a0 = v[:, 0, :].copy()
    a1 = v[:, 1, :]
    if gate.kind == "H":
        inv = amps.dtype.type(1.0 / math.sqrt(2.0))
        v[:, 0, :] = (a0 + a1) * inv
        v[:, 1, :] = (a0 - a1) * inv
    else:
        c = amps.dtype.type(math.cos(gate.theta / 2.0))
        s = amps.dtype.type(-1j * math.sin(gate.theta / 2.0))
        v[:, 0, :] = c * a0 + s * a1
        v[:, 1, :] = s * a0 + c * a1


def mixed_gates(qubits, rng: np.random.Generator) -> list[GateOp]:
    return [
        GateOp("H", (int(q),)) if rng.random() < 0.3 else GateOp("RX", (int(q),), rng.normal())
        for q in qubits
    ]


def gate_run_input(n: int, order: str, rng: np.random.Generator) -> list[GateOp]:
    """A run on n qubits.  "shuffled": every qubit twice, in random order,
    so most groups take the product of several gates per qubit.  "mixer":
    an ascending RX on every qubit, then the shuffled list.  "broken": an
    ascending stretch that breaks off part-way (0, 1, 2, 5, 3, 4, 6, ...)."""
    shuffled = mixed_gates(rng.permutation(np.repeat(np.arange(n), 2)), rng)
    if order == "shuffled":
        return shuffled
    if order == "mixer":
        return [GateOp("RX", (q,), rng.normal()) for q in range(n)] + shuffled
    return mixed_gates([0, 1, 2, 5, 3, 4, *range(6, n)], rng)


def check_gate_run(n: int, rows: int, order: str, precision: str) -> None:
    """The run on a flat batch of ``rows`` random states of n qubits gives
    each row the bits of that row run alone, and is within rounding of the
    kernels of 0.2.0 applied one by one in double precision."""
    rng = np.random.default_rng(100 * rows + n)
    gates = gate_run_input(n, order, rng)
    start = np.concatenate([random_state(n, n + r) for r in range(rows)])
    dtype = Precision.coerce(precision).dtype
    run = start.astype(dtype)
    run_gates(run, gates, n)
    for r in range(rows):
        alone = start[r << n : (r + 1) << n].astype(dtype)
        run_gates(alone, gates)
        assert alone.tobytes() == run[r << n : (r + 1) << n].tobytes()
    old = start.copy()
    for g in gates:
        kernel_of_0_2(old, g)
    # each gate rounds every amplitude once or twice; the groups round fewer times
    eps = np.finfo(dtype).eps
    assert np.max(np.abs(run - old)) <= 4 * len(gates) * eps * np.max(np.abs(old))


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", [15, 16, 17])
def test_gate_run_matches_gates_one_by_one(n, precision):
    for order in ("shuffled", "mixer"):
        check_gate_run(n, 1, order, precision)


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize(
    "rows,n,order",
    [
        (1, 15, "broken"),
        (1, 17, "broken"),
        # flat batches of three states, as the noisy engine runs its blocks
        (3, 4, "mixer"),
        (3, 9, "mixer"),
        (3, 13, "mixer"),
        (3, 9, "broken"),
        (1, 1, "shuffled"),
        (1, 1, "mixer"),
    ],
)
def test_gate_run_on_batches_and_broken_ascents(rows, n, order, precision):
    check_gate_run(n, rows, order, precision)


def test_gate_run_rejects_diagonal_gates():
    amps = random_state(4, 0)
    with pytest.raises(ValidationError):
        run_gates(amps, [GateOp("H", (0,)), GateOp("RZZ", (0, 1), 0.3)])


_REDUCTIONS = """
from lrqbench import (LrQaoaParams, build_circuit, exact_expected_r, generate_instance,
                      run_circuit, solve_instance)
inst = solve_instance(generate_instance(18, 1))
sv = run_circuit(build_circuit(inst, LrQaoaParams(p=1)))
print(sv.norm_squared().hex(), exact_expected_r(sv, inst).hex())
"""


def printed(code: str, **extra) -> str:
    """What ``code`` prints in a fresh interpreter, with no BLAS thread or
    kernel setting inherited, and ``extra`` set in its environment."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_CORETYPE")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(lrqbench.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**env, **extra}, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_reductions_do_not_depend_on_blas_threads():
    assert printed(_REDUCTIONS) == printed(_REDUCTIONS, OPENBLAS_NUM_THREADS="1")


_STATES = """
import hashlib
from lrqbench import (DepolarizingConfig, LrQaoaParams, build_circuit, generate_instance,
                      noisy_expected_probs, run_circuit)
for n in (13, 17):
    circ = build_circuit(generate_instance(n, 3), LrQaoaParams(p=2))
    for precision in ("fp32", "fp64"):
        print(hashlib.sha256(run_circuit(circ, precision).amps.tobytes()).hexdigest())
circ = build_circuit(generate_instance(8, 3), LrQaoaParams(p=3))
probs = noisy_expected_probs(circ, DepolarizingConfig(0.05, 20, 4), "fp32")
print(hashlib.sha256(probs.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("coretype", ["default", "Haswell"])
def test_states_do_not_depend_on_blas_threads(coretype):
    # every product call writes 2^w x 64 outputs or fewer, which OpenBLAS
    # computes on one thread whatever its thread count, under either kernel
    kernel = {} if coretype == "default" else {"OPENBLAS_CORETYPE": coretype}
    one = printed(_STATES, OPENBLAS_NUM_THREADS="1", **kernel)
    assert len(one.split()) == 5
    assert one == printed(_STATES, OPENBLAS_NUM_THREADS="2", **kernel)


def test_norm_preserved_through_long_circuit():
    inst = generate_instance(8, 4)
    circ = build_circuit(inst, LrQaoaParams(p=20))
    for precision in ("fp32", "fp64"):
        sv = run_circuit(circ, precision)
        assert abs(sv.norm_squared() - 1.0) < sv.norm_tolerance()


def test_fp32_tracks_fp64():
    inst = generate_instance(12, 12)
    circ = build_circuit(inst, LrQaoaParams(p=10))
    lo = run_circuit(circ, "fp32")
    hi = run_circuit(circ, "fp64")
    assert lo.amps.dtype == np.complex64
    assert hi.amps.dtype == np.complex128
    assert np.max(np.abs(lo.amps.astype(np.complex128) - hi.amps)) < 1e-4


def test_expected_r_is_probability_weighted_ratio(triangle_solved):
    circ = build_circuit(triangle_solved, LrQaoaParams(p=3))
    sv = run_circuit(circ, "fp64")
    got = exact_expected_r(sv, triangle_solved)
    probs = oracles.probabilities(sv.amps)
    cuts = np.array([0.0, 1.5, 0.75, 1.25, 1.25, 0.75, 1.5, 0.0])
    assert got == pytest.approx(float(probs @ cuts) / 1.5, abs=1e-12)
    assert 0.0 <= got <= 1.0


def test_expected_r_requires_solved_instance(triangle):
    sv = plus_state(3, "fp64")
    with pytest.raises(StateError):
        exact_expected_r(sv, triangle)


def test_expected_r_builds_one_cut_diagonal(monkeypatch):
    inst = solve_instance(generate_instance(17, 2))
    probs = np.random.default_rng(0).random(1 << 17)
    probs /= probs.sum()
    cut = CutDiagonal(inst.num_vertices, inst.edges)
    want = dot = 0.0  # per-chunk evaluations
    for lo in range(0, probs.size, 1 << 16):
        chunk = probs[lo : lo + (1 << 16)]
        want += float((cut.block(lo >> 16) * chunk).sum())
        dot += float(chunk @ cut.block(lo >> 16))
    want /= inst.optimal_cut.value
    assert want == pytest.approx(dot / inst.optimal_cut.value, rel=1e-14)
    built = []

    class Counting(CutDiagonal):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(problem, "CutDiagonal", Counting)
    assert expected_r_from_probs(probs, inst) == want
    assert expected_r_from_probs(probs, inst) == want  # the instance keeps its cut
    assert len(built) == 1


def test_expected_r_checks_sizes(triangle_solved):
    with pytest.raises(ValidationError):
        expected_r_from_probs(np.ones(4) / 4.0, triangle_solved)


def test_sample_deterministic_and_decodable():
    sv = plus_state(4, "fp64")
    a = sample(sv, 50, rng_seed=7)
    b = sample(sv, 50, rng_seed=7)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert a.source == "noiseless"
    assert len(a) == 50
    assert a.bitstrings()[0] == index_to_bitstring(int(a.indices[0]), 4)
    c = sample(sv, 50, rng_seed=8)
    assert not np.array_equal(a.indices, c.indices)


def test_sample_concentrated_state():
    sv = zero_state(3, "fp64")
    shots = sample(sv, 25, rng_seed=0)
    assert np.all(shots.indices == 0)


def test_sample_tracks_distribution():
    sv = StateVector(1, np.array([0.5, math.sqrt(0.75)], np.complex128))
    idx = sample(sv, 10_000, 0).indices
    frac = float((idx == 1).mean())
    # 3 sigma of a binomial at p=0.75, n=1e4
    assert abs(frac - 0.75) < 3.0 * np.sqrt(0.75 * 0.25 / 10_000)


def full_vector_shots(amps: np.ndarray, n_shots: int, seed: int) -> np.ndarray:
    """``sample``'s shots over the whole probability vector."""
    return oracles.inverse_cdf_shots(
        oracles.probabilities(amps), n_shots, derive_rng(seed, "shots", 0)
    )


def streamed_cases(n: int) -> dict:
    chunk = engine._REDUCTION_CHUNK
    dense = random_state(n, 60 + n)
    hollow = dense.copy()  # every other chunk without mass
    for lo in range(0, hollow.size, 2 * chunk):
        hollow[lo : lo + chunk] = 0.0
    seam = np.zeros(1 << n, complex)  # mass on both sides of a chunk edge
    seam[chunk - 1], seam[chunk] = 0.6, 0.8j
    basis = np.zeros(1 << n, complex)
    basis[(1 << n) - 3] = 1.0
    return {"dense": dense, "hollow": hollow, "seam": seam, "basis": basis}


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", [17, 18])
@pytest.mark.parametrize("case", ["dense", "hollow", "seam", "basis"])
def test_streamed_sample_matches_full_vector_formula(precision, n, case):
    amps = streamed_cases(n)[case].astype(Precision.coerce(precision).dtype)
    for seed in (0, 5):
        got = sample(StateVector(n, amps), 3000, seed).indices
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, full_vector_shots(amps, 3000, seed))


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
def test_streamed_sample_below_one_chunk(precision):
    amps = random_state(10, 8).astype(Precision.coerce(precision).dtype)
    got = sample(StateVector(10, amps), 3000, 2).indices
    np.testing.assert_array_equal(got, full_vector_shots(amps, 3000, 2))


@pytest.mark.parametrize("n", [2, 3, 17])
def test_streamed_sample_rejects_zero_norm(n):
    with pytest.raises(ValidationError, match="zero norm"):
        sample(StateVector(n, np.zeros(1 << n, np.complex64)), 10, 0)


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", [17, 18])
def test_streamed_expected_r_and_norm_match_full_vector(precision, n):
    inst = solve_instance(generate_instance(n, 9))
    sv = StateVector(n, random_state(n, 70 + n).astype(Precision.coerce(precision).dtype))
    probs = oracles.probabilities(sv.amps)
    assert exact_expected_r(sv, inst) == expected_r_from_probs(probs, inst)
    want = sum(float(probs[lo : lo + (1 << 16)].sum()) for lo in range(0, probs.size, 1 << 16))
    assert sv.norm_squared() == want


@functools.lru_cache(maxsize=None)
def random_state_once(n: int) -> np.ndarray:
    state = random_state(n, 90 + n)
    state.flags.writeable = False
    return state


def piece_cases(n: int, draws: int) -> dict:
    """States around the sampler's pieces of 2^k amplitudes for ``draws``."""
    piece = 1 << engine._piece_bits(n, draws)
    dense = random_state_once(n)
    hollow = dense.copy()  # every other piece without mass
    hollow.reshape(-1, piece)[::2] = 0.0
    seam = np.zeros(1 << n, complex)  # mass on both sides of two piece edges
    seam[[piece - 1, piece, -piece - 1, -piece]] = 0.3, 0.5j, 0.4, 0.7j
    return {"dense": dense, "hollow": hollow, "seam": seam}


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", [16, 17, 20])
@pytest.mark.parametrize("case", ["dense", "hollow", "seam"])
@pytest.mark.parametrize("draws", [1, 100, 3000, 10**5])
def test_draws_by_pieces_match_the_full_cdf(precision, n, case, draws):
    # 1 and 10^5 draws take k at its ceiling and its floor; some uniforms
    # equal a piece's normalized end exactly, and one is 0
    amps = piece_cases(n, draws)[case].astype(Precision.coerce(precision).dtype)
    probs = oracles.probabilities(amps)
    cdf = np.cumsum(probs)
    piece = 1 << engine._piece_bits(n, draws)
    u = np.random.default_rng(draws + n).random(draws)
    special = np.concatenate(((cdf / cdf[-1])[piece - 1 :: piece][:-1], [0.0]))[:draws]
    u[: special.size] = special
    got, total = engine._draw_streamed(amps, u)
    assert got.dtype == np.uint64 and got.shape == u.shape
    np.testing.assert_array_equal(got, oracles.inverse_cdf(probs, u))
    assert total == cdf[-1]


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", [16, 17, 20])
def test_read_out_is_sample_exact_ratio_and_norm_bit_for_bit(precision, n):
    inst = solve_instance(generate_instance(n, 9))
    sv = StateVector(n, random_state_once(n).astype(Precision.coerce(precision).dtype))
    probs = oracles.probabilities(sv.amps)
    shots, ratio, norm = engine.read_out(sv, 2000, 4, inst)
    assert shots.indices.tobytes() == sample(sv, 2000, 4).indices.tobytes()
    assert ratio.hex() == exact_expected_r(sv, inst).hex() == expected_r_from_probs(probs, inst).hex()
    want = sum(float(probs[lo : lo + (1 << 16)].sum()) for lo in range(0, probs.size, 1 << 16))
    assert norm.hex() == sv.norm_squared().hex() == want.hex()
    shots, ratio, norm = engine.read_out(sv, 20, 4)  # no instance, no ratio
    assert ratio is None and norm.hex() == want.hex()
    assert shots.indices.tobytes() == sample(sv, 20, 4).indices.tobytes()


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
def test_noiseless_pipeline_peaks_within_its_budget(tmp_path, precision):
    # traced from the load of a solved instance, which builds the instance's
    # cut before any run, as ``simulate`` does
    n = 17
    path = tmp_path / "inst.json"
    save_instance(solve_instance(generate_instance(n, 5)), path)
    need = state_bytes(n, precision) + max(engine._scratch_bytes(n, precision, shots=100))
    need += engine._gate_list_bytes(sum(gate_counts(n, 1)))

    def pipeline():
        inst = load_instance(path)
        sv = run_circuit(build_circuit(inst, LrQaoaParams(p=1)), precision, need, 100)
        sample(sv, 100, 1).bitstrings()
        exact_expected_r(sv, inst)
        sv.norm_squared()

    assert state_bytes(n, precision) < traced_peak(pipeline) <= need
    circ = build_circuit(load_instance(path), LrQaoaParams(p=1))
    with pytest.raises(CapacityError):
        run_circuit(circ, precision, need - 1, 100)


def test_run_tail_allocates_nothing_of_state_size():
    """The tail's peak at n=18 is the one at n=17 plus a few running totals:
    a vector over the state would add 2^17 entries."""
    peaks = []
    for n in (17, 18):
        inst = solve_instance(generate_instance(n, 6))
        sv = StateVector(n, random_state(n, 80 + n).astype(np.complex64))

        def tail():
            sample(sv, 100, 1)
            exact_expected_r(sv, inst)
            sv.norm_squared()

        peaks.append(traced_peak(tail))
    assert peaks[1] - peaks[0] < 1 << 12
    assert peaks[0] <= engine._scratch_bytes(17, Precision.FP32, shots=100)[1]


def test_sharded_run_budgets_its_exchange_legs():
    plan = plan_for_shard_count(17, 2)
    circ = build_circuit(generate_instance(17, 5), LrQaoaParams(p=1))
    workers = _workers(plan)
    need = state_bytes(17, Precision.FP32) + engine._gate_list_bytes(len(circ.gates))
    need += max(engine._scratch_bytes(17, Precision.FP32, workers))
    peak = traced_peak(lambda: run_circuit_sharded(circ, plan, "fp32", need))
    assert state_bytes(17, Precision.FP32) < peak <= need
    with pytest.raises(CapacityError):
        run_circuit_sharded(circ, plan, "fp32", need - 1)


def test_state_bytes():
    assert state_bytes(33, Precision.FP32) == 68719476736
    assert state_bytes(3, Precision.FP64) == 128


def test_capacity_error_names_requirement():
    with pytest.raises(CapacityError, match=r"68719476736 bytes \(64\.0 GiB\)"):
        check_memory(state_bytes(33, Precision.FP32))
    # below a GiB the need shows in MiB, not as "0.0 GiB"
    with pytest.raises(CapacityError, match=r"^a dense run needs 8596608 bytes \(8\.2 MiB\), budget is 1 bytes$"):
        check_memory(8596608, 1, "a dense run")


def test_run_budget_counts_the_shots_to_be_drawn():
    # a million draws hold far more than the run's other scratch
    circ = build_circuit(generate_instance(12, 5), LrQaoaParams(p=1))
    need = state_bytes(12, Precision.FP32) + engine._gate_list_bytes(len(circ.gates))
    need += max(engine._scratch_bytes(12, Precision.FP32, shots=10**6))
    run_circuit(circ, "fp32", need, 10**6)
    with pytest.raises(CapacityError):
        run_circuit(circ, "fp32", need, 10**6 + 1)


def test_dump_roundtrip(tmp_path):
    inst = generate_instance(5, 3)
    circ = build_circuit(inst, LrQaoaParams(p=2))
    for precision in ("fp32", "fp64"):
        sv = run_circuit(circ, precision)
        path = tmp_path / f"state-{precision}.bin"
        save_statevector(sv, path)
        back = load_statevector(path)
        assert back.num_qubits == 5
        assert back.amps.dtype == sv.amps.dtype
        np.testing.assert_array_equal(back.amps, sv.amps)
        assert back.amps.flags.writeable
        short = tmp_path / f"short-{precision}.bin"
        short.write_bytes(path.read_bytes()[: -sv.amps.itemsize])
        with pytest.raises(ValidationError):
            load_statevector(short)


def test_load_rejects_corrupt_dump(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a statevector")
    with pytest.raises(ValidationError):
        load_statevector(path)
    path.write_bytes(b"")
    with pytest.raises(ValidationError):
        load_statevector(path)


# ---------------------------------------------------------------------------
# folded H layer and factored cost phases


def run_unfolded(circuit, precision):
    """The layer view executed as it stands: |0...0>, the H gates as a gate
    run, each cost layer multiplied into the state, and each gate run in
    the frame of the circuit's plan (``engine._layer_plan``)."""
    amps = zero_state(circuit.num_qubits, precision).amps
    _, frame, _ = engine._layer_plan(circuit, circuit.num_qubits, amps.dtype)
    for op in circuit.layers():
        if isinstance(op, CostLayer):
            engine._apply_cost_layer(amps, engine._CostPhase(op))
        else:
            run_gates(amps, op, frame=frame)
    return amps


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", range(1, 18))
def test_folded_start_matches_unfolded_h_run(n, precision):
    h_run = zero_state(n, precision).amps
    run_gates(h_run, [GateOp("H", (q,)) for q in range(n)])
    plus = np.full(1 << n, engine._plus_amplitude(n, h_run.dtype))
    assert plus.tobytes() == h_run.tobytes()
    if n == 1:  # no instance, and no edge to make a cost layer
        return
    circ = build_circuit(generate_instance(n, 60 + n), LrQaoaParams(p=1))
    start, _, _ = engine._layer_plan(circ, n, plus.dtype)
    assert start.tobytes() == plus[:1].tobytes()
    assert run_circuit(circ, precision).amps.tobytes() == run_unfolded(circ, precision).tobytes()


def unfoldable_circuits():
    n = 5
    h = [GateOp("H", (q,)) for q in range(n)]
    cost = [GateOp("RZZ", (i, j), 0.1 * (i + 2 * j)) for i in range(n) for j in range(i + 1, n)]
    rx = [GateOp("RX", (q,), -0.3) for q in range(n)]
    return {
        "some_qubits": h[:3] + cost + rx,
        "h_twice_on_one_qubit": h + [GateOp("H", (2,))] + cost + rx,
        "rx_first": rx + h + cost + rx,
        "no_cost_layer": h + rx,
    }


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("name", sorted(unfoldable_circuits()))
def test_other_openings_take_the_unfolded_path(name, precision):
    circ = CircuitIR(num_qubits=5, gates=unfoldable_circuits()[name])
    start, _, steps = engine._layer_plan(circ, 5, Precision.coerce(precision).dtype)
    assert start is None
    assert [type(op) for op, *_ in steps] == [
        CostLayer if isinstance(op, CostLayer) else engine._GateRun for op in circ.layers()
    ]
    assert run_circuit(circ, precision).amps.tobytes() == run_unfolded(circ, precision).tobytes()


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n,p", [(2, 1), (5, 2), (9, 3), (13, 1), (17, 2)])
def test_build_circuit_plans_have_only_real_group_matrices(n, p, precision):
    # every mixer runs in the circuit's S-dagger frame on all qubits, dense
    # and on 2 and 4 shards, and each plan gives the dense bits
    circ = build_circuit(generate_instance(n, 70 + n), LrQaoaParams(p=p))
    dtype = Precision.coerce(precision).dtype
    dense = run_circuit(circ, precision).amps.tobytes()
    for nq_local in {max(min(4, n), n - k) for k in (0, 1, 2)}:
        assert run_circuit_sharded(circ, plan_shards(n, nq_local), precision)[0].amps.tobytes() == dense
        _, frame, steps = engine._layer_plan(circ, nq_local, dtype)
        runs = [op for op, *_ in steps if isinstance(op, engine._GateRun)]
        assert len(runs) >= p and frame == (1 << n) - 1
        assert {m.dtype for run in runs for _, m in run.products} == {np.finfo(dtype).dtype}


@pytest.mark.parametrize("n", [9, 14])
def test_real_products_write_at_most_8_rows_of_64_amplitudes(monkeypatch, n):
    # the float32 kernels of Haswell and Zen give the columns of a 16-row
    # output bits that depend on their place, so no call writes more than
    # 8 rows; each writes min(64, 2^(n - w)) amplitudes, 2 floats each
    shapes, real = [], np.matmul

    def matmul(a, b, out):
        shapes.append((a.dtype, out.shape[-2:]))
        return real(a, b, out=out)

    monkeypatch.setattr(np, "matmul", matmul)
    run_circuit(build_circuit(generate_instance(n, 3), LrQaoaParams(p=1)), "fp32")
    widths = (4, n % 4 or 4)
    assert shapes and {dtype for dtype, _ in shapes} == {np.dtype(np.float32)}
    assert {rows for _, (rows, _) in shapes} == {min(8, 1 << w) for w in widths}
    assert {cols // 2 for _, (_, cols) in shapes} == {min(64, 1 << (n - w)) for w in widths}


def test_a_qubit_carrying_h_then_rx_keeps_a_complex_product():
    # the frame is S-dagger on the RX-only qubits 0 and 4; qubit 1 carries
    # H then RX, so group [0, 4) stays complex in it; group [4, 6) holds RX
    # on qubit 4 and H on qubit 5, real in it
    n = 6
    gates = [GateOp("H", (1,)), GateOp("RX", (1,), 0.7), GateOp("RX", (0,), -0.4),
             GateOp("RX", (4,), 1.1), GateOp("H", (5,))]
    _, frame, [(run, _, _)] = engine._layer_plan(CircuitIR(n, gates), n, np.complex128)
    assert frame == 0b10001
    assert [m.dtype for _, m in run.products] == [np.complex128, np.float64]
    start = random_state(n, 61)
    amps = start.copy()
    run_gates(amps, gates)
    want = start
    for g in gates:
        want = oracles.gate_unitary(g, n) @ want
    np.testing.assert_allclose(amps, want, atol=1e-12)


def test_runs_in_different_frames_match_the_oracle():
    # three runs between cost layers (the RX qubits {0, 1, 2}, then {0, 3}
    # with an H on 1, then an H layer): every qubit carries an H, so the
    # circuit's frame is empty, its RX runs keep complex products and the
    # state is the matrix product's
    n = 5
    cost = [GateOp("RZZ", (i, j), 0.1 * (i + 2 * j)) for i in range(n) for j in range(i + 1, n)]
    gates = [GateOp("RX", (q,), -0.3 - 0.1 * q) for q in range(3)] + cost
    gates += [GateOp("RX", (0,), 0.8), GateOp("H", (1,)), GateOp("RX", (3,), 0.5)] + cost
    gates += [GateOp("H", (q,)) for q in range(n)]
    circ = CircuitIR(num_qubits=n, gates=gates)
    _, frame, steps = engine._layer_plan(circ, n)
    assert frame == 0
    assert [{m.dtype for _, m in op.products} for op, *_ in steps if isinstance(op, engine._GateRun)] == [
        {np.dtype(np.complex64)}, {np.dtype(np.complex64)}, {np.dtype(np.float32)}
    ]
    for precision, atol in (("fp32", 1e-6), ("fp64", 1e-12)):
        got = run_circuit(circ, precision).amps
        assert np.max(np.abs(got - oracles.final_state(circ))) < atol


def test_build_circuit_plans_frame_every_qubit():
    for n in range(2, 18):
        inst = generate_instance(n, 90 + n)
        for p in (1, 2, 3):
            assert engine._layer_plan(build_circuit(inst, LrQaoaParams(p=p)), n)[1] == (1 << n) - 1


def test_a_mixed_circuits_frame_is_exactly_its_rx_only_qubits():
    # qubits 0, 2 and 3 carry RX alone, qubit 1 RX and H, qubit 4 H alone
    # and qubit 5 nothing: the frame is {0, 2, 3}, the first run's group
    # [0, 4) stays complex (qubit 1's RX), the others are real; the state
    # is the matrix product's, and shards give the dense bits
    n = 6
    cost = [GateOp("RZZ", (i, j), 0.1 * (i + 2 * j)) for i in range(n) for j in range(i + 1, n)]
    gates = [GateOp("RX", (q,), -0.3 - 0.1 * q) for q in range(3)] + cost
    gates += [GateOp("RX", (0,), 0.8), GateOp("H", (1,)), GateOp("RX", (3,), 0.5)] + cost
    gates += [GateOp("H", (4,)), GateOp("RX", (2,), 0.6)]
    circ = CircuitIR(num_qubits=n, gates=gates)
    _, frame, steps = engine._layer_plan(circ, n)
    assert frame == 0b1101
    assert [[m.dtype.kind for _, m in op.products] for op, *_ in steps if isinstance(op, engine._GateRun)] == [
        ["c"], ["f"], ["f", "f"]
    ]
    for precision, atol in (("fp32", 1e-6), ("fp64", 1e-12)):
        dense = run_circuit(circ, precision).amps
        assert np.max(np.abs(dense - oracles.final_state(circ))) < atol
        for nq_local in (4, 5):
            assert run_circuit_sharded(circ, plan_shards(n, nq_local), precision)[0].amps.tobytes() == dense.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_the_state_leaves_the_frame_once_per_slab_after_the_last_step(monkeypatch, workers):
    # the folded H layer is filled into the frame, no step changes it, and
    # one pass per slab leaves it, timed on the last step's row
    circ = build_circuit(generate_instance(8, 6), LrQaoaParams(p=2))
    events, real_change, real_run = [], engine._change_frame, engine._apply_gate_run

    def change(amps, old, new, offset=0, fill=None):
        events.append(("frame", old, new, offset, amps.size))
        if old:
            time.sleep(0.02)
        real_change(amps, old, new, offset, fill)

    def run(amps, gates):
        events.append("run")
        real_run(amps, gates)

    monkeypatch.setattr(engine, "_change_frame", change)
    monkeypatch.setattr(engine, "_apply_gate_run", run)
    sv, _, timed = engine._run_steps(circ, 8, "fp32", None, 0, workers)
    slab = 256 // workers
    assert events[0] == ("frame", 0, 255, 0, 256)
    assert sorted(events[-workers:]) == [("frame", 255, 0, lo, slab) for lo in range(0, 256, slab)]
    assert all(e == "run" for e in events[1:-workers])
    assert timed[-1][1] >= 0.02
    assert sv.amps.tobytes() == run_circuit(circ, "fp32").amps.tobytes()


def cost_layer(n: int, seed: int) -> CostLayer:
    inst = generate_instance(n, seed)
    return CostLayer(n, tuple(GateOp("RZZ", (i, j), 0.37 * w) for i, j, w in inst.edges))


def layouts_at_the_angle_bound(n: int) -> dict[str, list[tuple[int, int, float]]]:
    """Cost layers whose sum of |theta| is just inside what ``CostLayer``
    admits, with the weight on one low edge, one low-high edge, one high
    edge, a star (large column sums in ``offset_cut``), or spread over the
    complete graph with alternating signs."""
    s = sys.float_info.max / 4 * (1 - 1e-12)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return {
        "low": [(0, 1, s)],
        "low_high": [(0, n - 1, -s)],
        "high": [(n - 2, n - 1, s)],
        "star": [(0, j, s / (n - 1)) for j in range(1, n)],
        "spread": [(i, j, (-1) ** k * s / len(edges)) for k, (i, j) in enumerate(edges)],
    }


@pytest.mark.parametrize("layout", ["low", "low_high", "high", "star", "spread"])
def test_largest_admitted_angles_run_without_overflow(layout):
    # n=17: blocks of 2^16 with a high vertex, and two chunks per noisy row
    n = 17
    gates = [GateOp("RZZ", (i, j), t) for i, j, t in layouts_at_the_angle_bound(n)[layout]]
    layer = CostLayer(n, tuple(gates))
    circ = CircuitIR(n, [GateOp("H", (q,)) for q in range(n)] + gates)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert np.isfinite(engine._CostPhase(layer).eq).all()
        cut = layer.cut()
        values = np.concatenate([cut.block(0), cut.block(1)])
        sv = run_circuit(circ, "fp64")
        noisy = lrqbench.noisy_expected_probs(circ, lrqbench.DepolarizingConfig(1.0, 2, 3), "fp64")
    assert np.isfinite(values).all()
    assert np.isfinite(sv.amps).all() and np.isfinite(noisy).all()
    assert sv.norm_squared() == pytest.approx(1.0, abs=sv.norm_tolerance())


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", [3, 16, 17, 18])
def test_cost_layer_sub_ranges_match_full_range(n, precision):
    # every range of 2^k indices at a multiple of 2^k, k = 2 .. n, the shapes
    # of slabs, shards and rows: within a piece, a block and across blocks.
    # Above one block, where all of them take 2^(n - 1) calls, the ranges
    # under a 2^12 piece are those in each block's first and last piece.
    phase = engine._CostPhase(cost_layer(n, 70 + n))
    start = random_state(n, n).astype(Precision.coerce(precision).dtype)
    full = start.copy()
    engine._apply_cost_layer(full, phase)
    for k in range(2, n + 1):
        parts = start.copy()
        for lo in range(0, start.size, 1 << k):
            if n <= 16 or k >= 12 or not 0 < (lo >> 12) % 16 < 15:
                engine._apply_cost_layer(parts[lo : lo + (1 << k)], phase, lo)
                assert parts[lo : lo + (1 << k)].tobytes() == full[lo : lo + (1 << k)].tobytes()


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", [3, 11, 17])
def test_cost_layer_on_a_batch_matches_each_row_alone(n, precision):
    # the noisy ensemble runs a cost layer on a block's rows in one call
    phase = engine._CostPhase(cost_layer(n, 60 + n))
    dtype = Precision.coerce(precision).dtype
    batch = np.stack([random_state(n, 10 * n + r) for r in range(3)]).astype(dtype)
    alone = batch.copy()
    engine._apply_cost_layer(batch, phase)
    for row in alone:
        engine._apply_cost_layer(row, phase)
    assert batch.tobytes() == alone.tobytes()


@pytest.mark.parametrize("n", [2, 8, 9, 12, 16, 17, 20])
def test_cost_phase_table_matches_one_exponential_per_offset(n):
    phase = engine._CostPhase(cost_layer(n, 50 + n))
    # the build reads the cut's offset tables, never its full table
    assert "offset_cut" not in phase.cut.__dict__
    want = oracles.cost_phase_table(phase.cut)
    assert np.max(np.abs(phase.eq - want)) <= 1e-14
    if n <= 8:  # one table over the low bits: the same exponentials
        assert phase.eq.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_cost_phase_build_peaks_within_its_bound(n):
    layer = cost_layer(n, 30 + n)
    engine._CostPhase(layer)  # numpy's one-time allocations, outside the trace
    bound = engine._cost_layer_bytes(n, Precision.FP32)[0]
    assert bound / 2 < traced_peak(lambda: engine._CostPhase(layer)) <= bound


def test_cost_layer_on_a_range_of_blocks_peaks_within_its_bound():
    # 2^20 amplitudes at n = 30: 16 blocks' terms from one block_terms call,
    # with the cast buffers _scratch_bytes adds to each call
    n, offset = 30, 5 << 20
    phase = engine._CostPhase(cost_layer(n, 7))
    amps = np.ones(1 << 20, np.complex64)
    engine._apply_cost_layer(amps[:16], phase, offset)  # numpy's one-time allocations
    bound = engine._cost_layer_bytes(n, Precision.FP32)[1] + 3 * 16 * np.getbufsize()
    assert traced_peak(lambda: engine._apply_cost_layer(amps, phase, offset)) <= bound


@pytest.mark.parametrize("n", [3, 9, 12, 17, 20])
def test_cost_layer_matches_cos_sin_formula(n):
    # the cost phase of 0.3.0: cos and sin of C - Theta/2 per amplitude
    layer = cost_layer(n, 80 + n)
    cut = layer.cut()
    x = cut.at(np.arange(1 << n, dtype=np.uint64)) - 0.5 * cut.total
    start = random_state(n, 90 + n)
    want = start * (np.cos(x) + 1j * np.sin(x))
    got = start.copy()
    engine._apply_cost_layer(got, engine._CostPhase(layer))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
