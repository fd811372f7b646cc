import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lrqbench

from lrqbench import (
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
    generate_instance,
    run_circuit,
    sample,
    save_statevector,
    solve_instance,
    load_statevector,
    zero_state,
)
from lrqbench.engine import (
    apply_gate,
    apply_rzz,
    check_memory,
    expected_r_from_probs,
    state_bytes,
)
from lrqbench import engine, problem
from lrqbench.problem import CutDiagonal, index_to_bitstring
from lrqbench.sharded import plan_for_shard_count, run_circuit_sharded
from lrqbench.rng import derive_rng

import oracles


def random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


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
    sv = StateVector(3, start.copy())
    apply_gate(sv, GateOp("H", (q,)))
    want = oracles.embed_single(oracles.HADAMARD, q, 3) @ start
    np.testing.assert_allclose(sv.amps, want, atol=1e-12)


@pytest.mark.parametrize("q,theta", [(0, 0.7), (1, -1.3), (2, 2.9)])
def test_rx_matches_expm(q, theta):
    start = random_state(3, 20 + q)
    sv = StateVector(3, start.copy())
    apply_gate(sv, GateOp("RX", (q,), theta))
    want = oracles.gate_unitary(GateOp("RX", (q,), theta), 3) @ start
    np.testing.assert_allclose(sv.amps, want, atol=1e-12)


@pytest.mark.parametrize("qa,qb,theta", [(0, 1, 0.4), (0, 2, -0.9), (1, 2, 2.2), (2, 0, 1.1)])
def test_rzz_matches_expm(qa, qb, theta):
    start = random_state(3, 30 + qa * 3 + qb)
    sv = StateVector(3, start.copy())
    apply_rzz(sv, theta, qa, qb)
    want = oracles.gate_unitary(GateOp("RZZ", (qa, qb), theta), 3) @ start
    np.testing.assert_allclose(sv.amps, want, atol=1e-12)


def test_rzz_pi_on_plus_plus():
    sv = plus_state(2, "fp64")
    apply_rzz(sv, np.pi, 0, 1)
    np.testing.assert_allclose(sv.amps, [-0.5j, 0.5j, 0.5j, -0.5j], atol=1e-15)


def test_rzz_qubit_order_irrelevant():
    start = random_state(4, 5)
    a = StateVector(4, start.copy())
    b = StateVector(4, start.copy())
    apply_rzz(a, 0.8, 1, 3)
    apply_rzz(b, 0.8, 3, 1)
    np.testing.assert_array_equal(a.amps, b.amps)


def test_rzz_layer_order_irrelevant():
    # a full cost layer is diagonal, so any gate order gives the same state
    inst = generate_instance(6, 21)
    start = random_state(6, 6)
    fwd = StateVector(6, start.copy())
    rev = StateVector(6, start.copy())
    gates = [GateOp("RZZ", (i, j), 0.3 * w) for i, j, w in inst.edges]
    for g in gates:
        apply_gate(fwd, g)
    for g in reversed(gates):
        apply_gate(rev, g)
    np.testing.assert_allclose(fwd.amps, rev.amps, atol=1e-12)


def test_gate_validation():
    sv = zero_state(2)
    with pytest.raises(ValidationError):
        apply_gate(sv, GateOp("H", (2,)))
    with pytest.raises(ValidationError):
        apply_rzz(sv, 0.1, 0, 0)
    with pytest.raises(ValidationError):
        apply_gate(sv, GateOp("RX", (-1,), 0.1))


@pytest.mark.parametrize("n,p,seed", [(2, 1, 0), (4, 2, 1), (5, 3, 2)])
def test_run_circuit_matches_matrix_product(n, p, seed):
    inst = generate_instance(n, seed)
    circ = build_circuit(inst, LrQaoaParams(p=p))
    got = run_circuit(circ, "fp64")
    want = oracles.final_state(circ)
    assert np.max(np.abs(got.amps - want)) < 1e-12


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
    so most gates run in place at their stride, on qubits above and below
    the ones passed so far and (n > 15) above the block.  "mixer": an
    ascending RX on every qubit, one pass each up to the block's top bit,
    then the shuffled list.  "broken": an ascending stretch that breaks
    off part-way (0, 1, 2, 5, 3, 4, 6, ...), so the block is restored after
    five passes, not after as many as it has bits."""
    shuffled = mixed_gates(rng.permutation(np.repeat(np.arange(n), 2)), rng)
    if order == "shuffled":
        return shuffled
    if order == "mixer":
        return [GateOp("RX", (q,), rng.normal()) for q in range(n)] + shuffled
    return mixed_gates([0, 1, 2, 5, 3, 4, *range(6, n)], rng)


def check_gate_run(n: int, rows: int, order: str, precision: str) -> None:
    """The run on a flat batch of ``rows`` random states of n qubits is bit
    for bit the gates one by one, and the kernels of 0.2.0."""
    rng = np.random.default_rng(100 * rows + n)
    gates = gate_run_input(n, order, rng)
    start = np.concatenate([random_state(n, n + r) for r in range(rows)])
    start = start.astype(Precision.coerce(precision).dtype)
    run = start.copy()
    engine._apply_gate_run(run, gates)
    one_by_one = StateVector(n, start.copy())
    old = start.copy()
    for g in gates:
        apply_gate(one_by_one, g)
        kernel_of_0_2(old, g)
    np.testing.assert_array_equal(run, one_by_one.amps)
    np.testing.assert_array_equal(run, old)


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
        engine._apply_gate_run(amps, [GateOp("H", (0,)), GateOp("RZZ", (0, 1), 0.3)])


_REDUCTIONS = """
from lrqbench import (LrQaoaParams, build_circuit, exact_expected_r, generate_instance,
                      run_circuit, solve_instance)
inst = solve_instance(generate_instance(18, 1))
sv = run_circuit(build_circuit(inst, LrQaoaParams(p=1)))
print(sv.norm_squared().hex(), exact_expected_r(sv, inst).hex())
"""


def test_reductions_do_not_depend_on_blas_threads():
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(lrqbench.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )

    def bits(**extra) -> str:
        out = subprocess.run(
            [sys.executable, "-c", _REDUCTIONS],
            env={**env, **extra},
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout

    assert bits() == bits(OPENBLAS_NUM_THREADS="1")


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
        want += float((cut.values(lo, lo + (1 << 16)) * chunk).sum())
        dot += float(chunk @ cut.values(lo, lo + (1 << 16)))
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


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
def test_noiseless_pipeline_peaks_within_its_budget(precision):
    n = 17
    inst = solve_instance(generate_instance(n, 5))
    circ = build_circuit(inst, LrQaoaParams(p=1))
    need = state_bytes(n, precision) + engine._run_scratch_bytes(n, precision)

    def pipeline():
        sv = run_circuit(circ, precision, need)
        sample(sv, 100, 1)
        exact_expected_r(sv, inst)
        sv.norm_squared()

    assert state_bytes(n, precision) < traced_peak(pipeline) <= need
    with pytest.raises(CapacityError):
        run_circuit(circ, precision, need - 1)


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
    assert peaks[0] <= engine._run_scratch_bytes(17, Precision.FP32)


def test_sharded_run_budgets_its_exchange_legs():
    plan = plan_for_shard_count(17, 2)
    circ = build_circuit(generate_instance(17, 5), LrQaoaParams(p=1))
    workers = min(2, os.cpu_count() or 1)
    need = state_bytes(17, Precision.FP32) + engine._run_scratch_bytes(17, Precision.FP32, workers)
    peak = traced_peak(lambda: run_circuit_sharded(circ, plan, "fp32", need))
    assert state_bytes(17, Precision.FP32) < peak <= need
    with pytest.raises(CapacityError):
        run_circuit_sharded(circ, plan, "fp32", need - 1)


def test_state_bytes():
    assert state_bytes(33, Precision.FP32) == 68719476736
    assert state_bytes(3, Precision.FP64) == 128


def test_capacity_error_names_requirement(monkeypatch):
    monkeypatch.delenv("LRQBENCH_MEMORY_BYTES", raising=False)
    with pytest.raises(CapacityError, match=r"68719476736 bytes \(64\.0 GiB\)"):
        check_memory(33, Precision.FP32)


def test_memory_budget_env_override(monkeypatch):
    monkeypatch.setenv("LRQBENCH_MEMORY_BYTES", str(1 << 20))
    with pytest.raises(CapacityError):
        zero_state(18, "fp64")  # 4 MiB
    check_memory(16, Precision.FP32)  # 512 KiB fits


def test_explicit_budget_beats_env(monkeypatch):
    monkeypatch.setenv("LRQBENCH_MEMORY_BYTES", "1")
    check_memory(10, Precision.FP32, budget=1 << 20)


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
    run, each cost layer multiplied into the state."""
    amps = zero_state(circuit.num_qubits, precision).amps
    for op in engine._layer_runs(circuit):
        if isinstance(op, CostLayer):
            engine._apply_cost_layer(amps, engine._CostPhase(op))
        else:
            engine._apply_gate_run(amps, op)
    return amps


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", range(1, 18))
def test_folded_start_matches_unfolded_h_run(n, precision):
    h_run = zero_state(n, precision).amps
    engine._apply_gate_run(h_run, [GateOp("H", (q,)) for q in range(n)])
    plus = np.full(1 << n, engine._plus_amplitude(n, h_run.dtype))
    assert plus.tobytes() == h_run.tobytes()
    if n == 1:  # no instance, and no edge to make a cost layer
        return
    circ = build_circuit(generate_instance(n, 60 + n), LrQaoaParams(p=1))
    start, _ = engine._fold_h(circ, plus.dtype)
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
    start, runs = engine._fold_h(circ, Precision.coerce(precision).dtype)
    assert start is None and runs == engine._layer_runs(circ)
    assert run_circuit(circ, precision).amps.tobytes() == run_unfolded(circ, precision).tobytes()


def cost_layer(n: int, seed: int) -> CostLayer:
    inst = generate_instance(n, seed)
    return CostLayer(n, tuple(GateOp("RZZ", (i, j), 0.37 * w) for i, j, w in inst.edges))


def range_cuts(size: int, rng) -> list[int]:
    """Sub-range bounds: unaligned offsets, pieces below 2^8 and 2^16 block
    edges approached from both sides."""
    cuts = {0, size, 1, 3, 250, 256 + 7}
    cuts |= {int(c) for c in rng.integers(0, size, 12)}
    for edge in range(1 << 16, size, 1 << 16):
        cuts |= {edge - 5, edge + 3, edge + 4096 + 1}
    return sorted(c for c in cuts if 0 <= c <= size)


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", [3, 16, 17, 18])
def test_cost_layer_sub_ranges_match_full_range(n, precision):
    phase = engine._CostPhase(cost_layer(n, 70 + n))
    start = random_state(n, n).astype(Precision.coerce(precision).dtype)
    full = start.copy()
    engine._apply_cost_layer(full, phase)
    cuts = range_cuts(start.size, np.random.default_rng(n))
    parts = start.copy()
    for lo, hi in zip(cuts, cuts[1:]):
        engine._apply_cost_layer(parts[lo:hi], phase, lo)
    assert parts.tobytes() == full.tobytes()
    if n >= 16:
        rows = start.copy().reshape(-1, 1 << 15)
        for s, row in enumerate(rows):
            engine._apply_cost_layer(row, phase, s << 15)
        assert rows.tobytes() == full.tobytes()


@pytest.mark.parametrize("n", [3, 12, 17])
def test_cost_layer_matches_cos_sin_formula(n):
    # the cost phase of 0.3.0: cos and sin of C - Theta/2 per amplitude
    layer = cost_layer(n, 80 + n)
    cut = layer.cut()
    x = cut.values(0, 1 << n) - 0.5 * cut.total
    start = random_state(n, 90 + n)
    want = start * (np.cos(x) + 1j * np.sin(x))
    got = start.copy()
    engine._apply_cost_layer(got, engine._CostPhase(layer))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
