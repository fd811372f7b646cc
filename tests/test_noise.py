import cmath
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import spearmanr

import lrqbench.engine as engine
import lrqbench.noise as noise
from lrqbench import (
    CapacityError,
    DepolarizingConfig,
    FitError,
    GateOp,
    LrQaoaParams,
    Precision,
    ValidationError,
    build_circuit,
    epsilon_accumulated,
    exact_expected_r,
    fit_k0,
    gate_counts,
    generate_instance,
    noisy_expected_probs,
    noisy_expected_r,
    predict_r_overlap,
    r_overlap,
    random_baseline_expectation,
    run_circuit,
    run_noisy_ensemble,
    sample,
    solve_instance,
)
from lrqbench.engine import (
    _GATE_BLOCK_BITS,
    _apply_cost_layer,
    _apply_gate_run,
    _cost_layer_bytes,
    _GateRun,
    _gate_list_bytes,
    _group_bytes,
    _group_matrices,
    _scratch_bytes,
    _shot_bytes,
    state_bytes,
)
from lrqbench.noise import (
    _Block,
    _clean_state,
    _commute_fired,
    _correction_bytes,
    _draw_bytes,
    _Edges,
    _prepare,
    _run_block,
    _sign_table,
)
from lrqbench.rng import derive_rng

import oracles


def random_state(n: int, seed: int) -> np.ndarray:
    """A random unit state, normalized by numpy's pairwise sum (no BLAS,
    whose dot changes its bits with the thread count)."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.sqrt((amps.real**2 + amps.imag**2).sum())


def test_config_validation():
    with pytest.raises(ValidationError):
        DepolarizingConfig(epsilon=-0.1)
    with pytest.raises(ValidationError):
        DepolarizingConfig(epsilon=1.5)
    with pytest.raises(ValidationError):
        DepolarizingConfig(epsilon=0.1, trajectories=0)


@pytest.mark.parametrize("threads", [0, -3])
def test_fewer_than_one_thread_is_refused(threads):
    # they used to run silently on one worker
    circ = build_circuit(generate_instance(4, 1), LrQaoaParams(p=1))
    cfg = DepolarizingConfig(0.1, trajectories=3)
    inst = solve_instance(generate_instance(4, 1))
    for run in (
        lambda: run_noisy_ensemble(circ, cfg, 5, threads=threads),
        lambda: noisy_expected_probs(circ, cfg, threads=threads),
        lambda: noisy_expected_r(circ, inst, cfg, threads=threads),
    ):
        with pytest.raises(ValidationError, match="threads must be at least 1"):
            run()


def test_epsilon_accumulated_uses_gate_count():
    _, n_2q = gate_counts(48, 3)
    assert epsilon_accumulated(n_2q, 0.001) == pytest.approx(3.384)


# each one-qubit Pauli (1, 2, 3: X, Y, Z) fired on qubit q of a one-edge
# layer; the ids keep the names of the one-qubit kernels it replaced
ONE_QUBIT_PAULIS = {"_x_kernel": (oracles.X, 1), "_y_kernel": (oracles.Y, 2), "_z_kernel": (oracles.Z, 3)}


def fire_one(amps: np.ndarray, pauli: int, q: int, signs: np.ndarray) -> None:
    """Pauli ``pauli`` on qubit q of ``amps``, fired by the one edge (q, q')
    of a layer through ``_commute_fired``; no later edge flips."""
    n = amps.size.bit_length() - 1
    edges = _Edges.of((GateOp("RZZ", (q, (q + 1) % n), 0.5),))
    fire, codes = np.ones((1, 1), bool), np.array([[4 * pauli]])
    _commute_fired(amps[None], np.array([0]), edges, fire, codes, signs)


@pytest.mark.parametrize(
    "matrix,pauli",
    [pytest.param(*v, id=f"{k}-matrix{i}") for i, (k, v) in enumerate(ONE_QUBIT_PAULIS.items())],
)
@pytest.mark.parametrize("q", [0, 1, 2])
def test_pauli_kernels_match_matrices(matrix, pauli, q):
    start = random_state(3, 40 + q)
    amps = start.copy()
    fire_one(amps, pauli, q, _sign_table(3))
    np.testing.assert_allclose(amps, oracles.embed_single(matrix, q, 3) @ start, atol=1e-14)


@pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
@pytest.mark.parametrize(
    "matrix,pauli",
    [pytest.param(*ONE_QUBIT_PAULIS[k], id=k) for k in ("_x_kernel", "_y_kernel")],
)
@pytest.mark.parametrize("q", [3, 15, 16])
def test_pauli_kernels_hold_at_most_one_chunk(precision, matrix, pauli, q):
    # at q = 15 and 16 the two chunks of a pair trade places whole
    n = 17
    amps = random_state(n, 90 + q).astype(precision.dtype)
    v = amps.reshape(-1, 2, 1 << q)
    signs = _sign_table(n)
    want = np.einsum("ij,rjc->ric", matrix, v.astype(np.complex128))
    _, peak = traced_peak(lambda: fire_one(amps, pauli, q, signs))
    assert peak <= _correction_bytes(n, 1, precision.dtype)
    np.testing.assert_array_equal(amps.reshape(v.shape), want.astype(precision.dtype))


@pytest.mark.parametrize("code", list(range(1, 16)))
def test_pauli_pair_code_mapping(code):
    # a layer of the one edge (qa, qb), which fires Pauli ``code``
    qa, qb = 0, 2
    start = random_state(3, 50 + code)
    amps = start.copy()
    edges = _Edges.of((GateOp("RZZ", (qa, qb), 0.5),))
    fire, codes = np.ones((1, 1), bool), np.array([[code]])
    _commute_fired(amps[None], np.array([0]), edges, fire, codes, _sign_table(3))
    pa, pb = divmod(code, 4)
    want = (
        oracles.embed_single(oracles.PAULIS[pa], qa, 3)
        @ oracles.embed_single(oracles.PAULIS[pb], qb, 3)
        @ start
    )
    np.testing.assert_allclose(amps, want, atol=1e-14)


@pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
@pytest.mark.parametrize("code", list(range(1, 16)))
def test_pauli_pairs_fired_in_a_frame_match_the_referee_bitwise(code, precision):
    # a row in the S-dagger frame on qubits 0, 2 and 3 fires Pauli ``code``
    # on the edge (2, 1), one qubit framed and one not; taken back out of
    # the frame it is the Pauli applied to the plain state, as the string's
    # mapping into the frame and both changes of frame are exact
    n, frame = 5, 0b01101
    start = random_state(n, 60 + code).astype(precision.dtype)
    got, want = start.copy(), start.copy()
    engine._change_frame(got, 0, frame)
    edges = _Edges.of((GateOp("RZZ", (2, 1), 0.5),), frame)
    _commute_fired(got[None], np.array([0]), edges, np.ones((1, 1), bool), np.array([[code]]), _sign_table(n))
    engine._change_frame(got, frame, 0)
    oracles.apply_pauli_pair(want, code, 2, 1)
    assert got.tobytes() == want.tobytes()


def test_cost_layers_after_a_mixer_fire_in_its_frame():
    # the ensemble's first cost layer comes before any mixer, the others
    # after one, in the frame S-dagger on every qubit
    circ = build_circuit(generate_instance(6, 2), LrQaoaParams(p=3))
    ens = _prepare(circ, DepolarizingConfig(0.1), Precision.FP32)
    assert [e.frame for e in ens.edges if e is not None] == [0, 63, 63]


def test_block_rows_enter_the_frame_once_and_never_leave_it(monkeypatch):
    # one change of frame per block (of 8 rows at n=12), before its first
    # gate run, and none after its last mixer; only the clean state leaves
    # the frame
    circ = build_circuit(generate_instance(12, 5), LrQaoaParams(p=3))
    cfg = DepolarizingConfig(0.02, trajectories=20, rng_seed=3)
    events, real_change, real_run = [], noise._change_frame, noise._apply_gate_run

    def change(amps, old, new, *args):
        if old != new:  # a pass over the rows; equal frames return at once
            events.append((old, new))
        real_change(amps, old, new, *args)

    def run(amps, gates):
        events.append("run")
        real_run(amps, gates)

    monkeypatch.setattr(noise, "_change_frame", change)
    monkeypatch.setattr(noise, "_apply_gate_run", run)
    assert run_noisy_ensemble(circ, cfg, 10).paulis_fired.any()
    block = [(0, 4095), "run", "run", "run"]
    assert len(events) > len(block) and events == block * (len(events) // len(block))
    del events[:]
    _clean_state(_prepare(circ, cfg, Precision.FP32))
    assert events == block + [(4095, 0)]


@pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
@pytest.mark.parametrize("n", range(2, 18))
def test_pauli_strings_match_the_referee_bitwise(n, precision):
    # random layers whose Paulis are composed to one string per row, against
    # the referee applying them one by one; each factor is +-1 or +-i, and
    # the zero angles give the flipped rows the phase 1, so the bytes
    # agree.  Rows that are one chunk go in one call, larger ones one per
    # call.  From n=16 on, a string whose X acts only on qubits at or above
    # bit 15 moves whole chunks, with no permutation inside.
    rng = np.random.default_rng(200 + n)
    rows = 12
    pairs = [tuple(int(q) for q in rng.choice(n, 2, replace=False)) for _ in range(12)]
    fire = rng.random((rows, len(pairs))) < rng.uniform(0.1, 0.9, size=(rows, 1))
    fire[: rows // 2, -1] = True  # the layer's last edge fires
    codes = rng.integers(1, 16, size=fire.shape)
    codes[:2, -1] = (4, 8)  # X I and Y I there
    if n > 15:
        pairs[0] = (15, 3)
        fire[-1] = False
        fire[-1, 0], codes[-1, 0] = True, 7  # X Z on (15, 3)
    edges = _Edges.of(tuple(GateOp("RZZ", pair, 0.0) for pair in pairs))
    flipped, xs, _, _ = noise._flipped(edges, fire, codes)
    assert flipped.any()
    if n > 15:
        assert int(xs[-1]) == 1 << 15
    start = np.stack(
        [(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)).astype(precision.dtype) for _ in range(rows)]
    )
    got, want = start.copy(), start.copy()
    for call in [np.arange(rows)] if n <= 15 else np.arange(rows)[:, None]:
        _commute_fired(got, call, edges, fire[call], codes[call], _sign_table(n))
    for r in range(rows):
        for k in np.flatnonzero(fire[r]):
            oracles.apply_pauli_pair(want[r], int(codes[r, k]), *pairs[k])
    assert got.tobytes() == want.tobytes()


def test_commuted_paulis_match_time_ordered_product():
    # the trajectory commutes each fired Pauli to the end of its cost layer;
    # the oracle applies gates and Paulis in time order with the same draws
    n, eps = 5, 0.45
    circ = build_circuit(generate_instance(n, 17), LrQaoaParams(p=2))
    cfg = DepolarizingConfig(eps, trajectories=4, rng_seed=21)
    ens = _prepare(circ, cfg, Precision.FP64)
    n_rzz = sum(g.kind == "RZZ" for g in circ.gates)
    layer_size = n * (n - 1) // 2
    most_in_one_layer = 0
    for t in range(cfg.trajectories):
        rng = oracles.jumped(derive_rng(cfg.rng_seed, "trajectory", 0), t)
        fire = rng.random(n_rzz) < 15.0 / 16.0 * eps
        codes = rng.integers(1, 16, size=n_rzz)
        most_in_one_layer = max(
            most_in_one_layer, *(int(fire[k : k + layer_size].sum()) for k in (0, layer_size))
        )
        want = np.zeros(1 << n, dtype=complex)
        want[0] = 1.0
        k = 0
        for gate in circ.gates:
            want = oracles.gate_unitary(gate, n) @ want
            if gate.kind == "RZZ":
                if fire[k]:
                    pa, pb = divmod(int(codes[k]), 4)
                    qa, qb = gate.qubits
                    want = (
                        oracles.embed_single(oracles.PAULIS[pa], qa, n)
                        @ oracles.embed_single(oracles.PAULIS[pb], qb, n)
                        @ want
                    )
                k += 1
        states, row_of, _ = _run_block(ens, _Block(fire[None], codes[None], [0]))
        got = states[row_of[0]]
        engine._change_frame(got, ens.frame, 0)  # block rows stay in the frame
        assert np.max(np.abs(got - want)) < 1e-12
    assert most_in_one_layer >= 4


def flipped_by_walk(gates, fire, codes):
    """The edges after the first fired Pauli whose qubits carry an odd
    number of the X/Y components fired before them, by a walk over the
    gates: the reference for ``noise._flipped``."""
    out = np.zeros(len(gates), bool)
    flipped = 0  # bit q set: the Paulis fired so far carry an odd number of X/Y on q
    for k, gate in enumerate(gates):
        qa, qb = gate.qubits
        out[k] = bool(((flipped >> qa) ^ (flipped >> qb)) & 1)
        if fire[k]:
            pa, pb = divmod(int(codes[k]), 4)
            flipped ^= ((pa in (1, 2)) << qa) | ((pb in (1, 2)) << qb)
    return out


def string_by_walk(gates, fire, codes):
    """The fired Paulis' product in firing order as (x, z, q) with product
    i^q X^x Z^z, by a walk over the gates that multiplies each qubit's 2 by
    2 Pauli matrices and then reads each qubit's product as c I, c X, c Y or
    c Z, with Y = i X Z: the reference for ``noise._flipped``'s string."""
    product = {}
    for k, gate in enumerate(gates):
        if fire[k]:
            for pauli, qubit in zip(divmod(int(codes[k]), 4), gate.qubits):
                product[qubit] = oracles.PAULIS[pauli] @ product.get(qubit, oracles.I2)
    x = z = 0
    phase = 1
    for qubit, m in product.items():
        for pauli, sigma in enumerate(oracles.PAULIS):
            c = np.trace(sigma.conj().T @ m) / 2
            if abs(c) == 1:
                break
        x |= (pauli in (1, 2)) << qubit
        z |= (pauli in (2, 3)) << qubit
        phase *= c * (1j if pauli == 2 else 1)
    return x, z, [1, 1j, -1, -1j].index(phase)


@pytest.mark.parametrize("n", [3, 5, 9, 40])
def test_flipped_edges_match_a_walk_over_the_gates(n):
    # n=40 puts qubits above bit 31 of the uint64 flip masks
    rng = np.random.default_rng(n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))[:120]]
    gates = tuple(GateOp("RZZ", pair, 0.1) for pair in pairs)
    fire = rng.random((64, len(gates))) < rng.uniform(0.01, 0.5, size=(64, 1))
    codes = rng.integers(1, 16, size=fire.shape)
    # the layer's last edge fires X or Y on one qubit or both in some rows
    fire[:8, -1] = True
    codes[:8, -1] = (4, 8, 1, 2, 5, 10, 6, 9)
    got, *string = noise._flipped(_Edges.of(gates), fire, codes)
    want = np.array([flipped_by_walk(gates, f, c) for f, c in zip(fire, codes)])
    np.testing.assert_array_equal(got, want)
    assert want.any() and not want.all()
    x, z, q = (np.asarray(a).tolist() for a in string)
    walked = [string_by_walk(gates, f, c) for f, c in zip(fire, codes)]
    assert [(a, b, c % 4) for a, b, c in zip(x, z, q)] == walked
    assert len({w[2] for w in walked}) == 4


def zz_signs(n, qa, qb):
    """S(z) = (1 - 2 z_a)(1 - 2 z_b) over every index z, one row per edge."""
    z = np.arange(1 << n)
    qa, qb = np.atleast_1d(qa)[:, None], np.atleast_1d(qb)[:, None]
    return (1 - 2 * ((z >> qa) & 1)) * (1 - 2 * ((z >> qb) & 1))


def flipping_layer(qa, qb, theta, low):
    """A layer whose first edges fire X X on qubits 0..low-1 (low even) and
    whose edges (qa_k, qb_k) follow, each with one qubit below low and one
    at or above it, so every one of them flips: its ``_Edges`` and one
    trajectory's draws over it."""
    gates = [GateOp("RZZ", (q, q + 1), 0.0) for q in range(0, low, 2)]
    gates += [GateOp("RZZ", (int(a), int(b)), float(t)) for a, b, t in zip(qa, qb, theta)]
    fire = np.arange(len(gates))[None] < low // 2
    return _Edges.of(tuple(gates)), fire, np.where(fire, 5, 1)


def test_flip_phase_fp32_error_within_per_edge_chain():
    # one float64 angle sum, cos and sin in float32, against the chain of
    # complex64 factors an RZZ(-2 theta) kernel applied edge by edge forms;
    # the layer's X X on qubits 0..5 moves the phase to l ^ 63, undone exactly
    n, low = 12, 6
    signs = _sign_table(n)
    rng = np.random.default_rng(12)
    worst_diagonal = worst_chain = 0.0
    for _ in range(50):
        size = int(rng.integers(5, 41))
        qa = rng.integers(0, low, size)
        qb = rng.integers(low, n, size)
        theta = rng.uniform(-np.pi, np.pi, size)
        zz = zz_signs(n, qa, qb)
        exact = np.exp(1j * (theta[:, None] * zz).sum(axis=0))
        moved = np.ones((1, 1 << n), np.complex64)
        _commute_fired(moved, np.array([0]), *flipping_layer(qa, qb, theta, low), signs)
        diagonal = moved[0, np.arange(1 << n) ^ ((1 << low) - 1)]
        chain = np.ones(1 << n, np.complex64)
        for t, s in zip(theta, zz):
            chain[s == 1] *= np.complex64(cmath.exp(1j * t))
            chain[s == -1] *= np.complex64(cmath.exp(-1j * t))
        worst_diagonal = max(worst_diagonal, float(np.abs(diagonal - exact).max()))
        worst_chain = max(worst_chain, float(np.abs(chain - exact).max()))
    assert worst_diagonal <= worst_chain


@pytest.mark.parametrize("n", [16, 17])
def test_commute_fired_chunked_matches_time_ordered_product(n):
    # edges among qubits below and at or above bit 15 (both ends above at
    # n=17); Y Y on (0, 1) flips the edges with one end in {0, 1}, and
    # I X on (5, 15) then adds 15, so (14, 15) and (15, 16) flip too
    qubits = [0, 1, 5, 14, 15, 16][: n - 11]
    pairs = [(a, b) for i, a in enumerate(qubits) for b in qubits[i + 1 :]]
    rng = np.random.default_rng(n)
    gates = tuple(GateOp("RZZ", pair, float(rng.uniform(-2, 2))) for pair in pairs)
    fire = np.zeros(len(pairs), bool)
    codes = np.zeros(len(pairs), np.int64)
    for pair, code in (((0, 1), 10), ((5, 15), 1), ((14, 16 if n == 17 else 15), 3)):
        fire[pairs.index(pair)], codes[pairs.index(pair)] = True, code
    start = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    want = start.copy()
    got = start.copy()
    for k, gate in enumerate(gates):
        diagonal = np.exp(-0.5j * gate.theta * zz_signs(n, *gate.qubits)[0])
        want *= diagonal
        got *= diagonal
        if fire[k]:
            oracles.apply_pauli_pair(want, int(codes[k]), *gate.qubits)
    _commute_fired(got[None], np.array([0]), _Edges.of(gates), fire[None], codes[None], _sign_table(n))
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(got - start)) > 1e-3


@pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
def test_correction_scratch_is_what_check_memory_counts(precision):
    n = 17
    signs = _sign_table(n)
    assert signs.nbytes == (_GATE_BLOCK_BITS + 1) << _GATE_BLOCK_BITS
    amps = np.ones((1, 1 << n), precision.dtype)
    qa = np.repeat([0, 1], 15)
    qb = np.tile(np.arange(2, 17), 2)
    theta = np.linspace(-3.0, 3.0, qa.size)
    edges, fire, codes = flipping_layer(qa, qb, theta, 2)
    _, peak = traced_peak(lambda: _commute_fired(amps, np.array([0]), edges, fire, codes, signs))
    assert 0 < peak <= _correction_bytes(n, len(edges.theta), precision.dtype)
    # chunks of 2^15 amplitudes: the count does not grow with the state
    assert _correction_bytes(30, qa.size, precision.dtype) == _correction_bytes(
        n, qa.size, precision.dtype
    )


@pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
@pytest.mark.parametrize("n", [2, 3, 5, 9, 12])
def test_block_correction_scratch_is_what_check_memory_counts(precision, n):
    # a full block, every row firing about half the layer's edges: the
    # flipped edges' gathers, the batched phases and the Pauli kernels
    rows = noise._block_rows(n, 1 << 20, 1)
    circ = build_circuit(generate_instance(n, 3), LrQaoaParams(p=1))
    gates = tuple(g for g in circ.gates if g.kind == "RZZ")
    rng = np.random.default_rng(n)
    states = (rng.normal(size=(rows, 1 << n)) + 0j).astype(precision.dtype)
    fire = rng.random((rows, len(gates))) < 0.5
    fire[:, 0] = True
    codes = rng.integers(1, 16, size=fire.shape)
    signs = _sign_table(n)
    _, peak = traced_peak(
        lambda: _commute_fired(states, np.arange(rows), _Edges.of(gates), fire, codes, signs)
    )
    assert 0 < peak <= _correction_bytes(n, len(gates), precision.dtype, rows)


def noisy_budget(circ, blocks: int, workers: int, shots: int = 0, rows: int = 1) -> int:
    """Bytes ``_prepare`` counts for an fp32 ensemble of ``circ``: ``blocks``
    states in flight, in blocks of ``rows``; the dense engine's gate list
    and scratch bound, the larger of executor and tail for one worker and
    both for more; the sign table, the phase tables of the cost layers and
    the group matrices of the mixers after the first (the executor bound
    holds one of each), each worker's
    correction scratch over a block, the draws of the blocks in flight and
    of the one being cut, and ``shots`` draws."""
    n = circ.num_qubits
    executor, tail = _scratch_bytes(n, Precision.FP32, workers)
    correction = _correction_bytes(n, n * (n - 1) // 2, Precision.FP32.dtype, rows)
    n_rzz = sum(g.kind == "RZZ" for g in circ.gates)
    draws = (blocks // rows + 1) * _draw_bytes(rows, n_rzz)
    return (
        blocks * state_bytes(n, Precision.FP32)
        + (max(executor, tail) if workers == 1 else executor + tail)
        + _gate_list_bytes(len(circ.gates))
        + _sign_table(n).nbytes
        + (circ.p - 1) * (_cost_layer_bytes(n, Precision.FP32)[0] + _group_bytes(n, Precision.FP32))
        + workers * correction
        + draws
        + _shot_bytes(n, shots)
    )


def counted(run) -> int:
    """The bytes a run's memory check counts, as it names them when the
    run is refused."""
    with pytest.raises(CapacityError) as exc:
        run(1)
    return int(re.search(r"needs (\d+) bytes", str(exc.value)).group(1))


def traced_peak(fn):
    """``fn``'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prepare_budgets_the_sign_table_and_correction_scratch():
    n = 6
    circ = build_circuit(generate_instance(n, 3), LrQaoaParams(p=2))
    need = noisy_budget(circ, blocks=6 * 4, workers=3, rows=4)  # six blocks of four in flight
    # twelve trajectories on three threads: blocks of four, three workers
    cfg = DepolarizingConfig(0.1, trajectories=12)
    ens = _prepare(circ, cfg, Precision.FP32, need, threads=3)
    assert (ens.rows, ens.workers) == (4, 3)
    with pytest.raises(CapacityError):
        _prepare(circ, cfg, Precision.FP32, need - 1, threads=3)


def test_noisy_ensemble_peaks_within_its_budget():
    # n=20 fp32, p=3, one row per block: one block in flight and no state-sized
    # phase per cost layer, so the peak stays below three states even with
    # the correction scratch of a firing trajectory
    n = 20
    circ = build_circuit(generate_instance(n, 5), LrQaoaParams(p=3))
    cfg = DepolarizingConfig(0.05, trajectories=2, rng_seed=3)
    need = noisy_budget(circ, blocks=1, workers=1, shots=2 * 10)
    shots, peak = traced_peak(lambda: run_noisy_ensemble(circ, cfg, 10, "fp32", need))
    assert shots.paulis_fired.min() > 0  # both trajectories take their own row
    assert state_bytes(n, Precision.FP32) < peak < 3 * state_bytes(n, Precision.FP32)
    assert peak <= need
    with pytest.raises(CapacityError):
        run_noisy_ensemble(circ, cfg, 10, "fp32", need - 1)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [16, 18, 20])
def test_noisy_peak_stays_within_its_count_on_threads(n, threads):
    # two trajectories that both fire; on two threads each runs its own
    # block while the consumer samples the other's
    circ = build_circuit(generate_instance(n, 5), LrQaoaParams(p=3))
    cfg = DepolarizingConfig(0.05, trajectories=2, rng_seed=3)

    def run(budget):
        return run_noisy_ensemble(circ, cfg, 10, "fp32", budget, threads)

    need = counted(run)
    shots, peak = traced_peak(lambda: run(need))
    assert shots.paulis_fired.min() > 0
    assert peak <= need
    with pytest.raises(CapacityError):
        run(need - 1)


def test_prepare_fits_three_cost_layers_at_n27_in_the_default_budget():
    # 1 GiB for the block; a state-sized phase per cost layer would need
    # 3 GiB more
    circ = build_circuit(generate_instance(27, 1), LrQaoaParams(p=3))
    ens = _prepare(circ, DepolarizingConfig(0.01), Precision.FP32)
    assert sum(phase is not None for phase in ens.phases) == 3


def test_default_budget_admits_noisy_shots_at_n28_but_not_the_channel_average():
    # the shots' ensemble holds one 2 GiB block and about 40 MB besides; the
    # channel average also holds its float64 mean, 2 GiB more
    circ = build_circuit(generate_instance(28, 1), LrQaoaParams(p=3))

    def check():
        _prepare(circ, DepolarizingConfig(0.01), Precision.FP32, held=_shot_bytes(28, 100))
        with pytest.raises(CapacityError):
            noisy_expected_probs(circ, DepolarizingConfig(0.01, trajectories=1))

    _, peak = traced_peak(check)
    assert peak < state_bytes(28, Precision.FP32) // 64  # nothing of state size


def per_trajectory_reference(circ, cfg, precision, shots):
    """The ensemble as one state per trajectory, run alone: zeros, gate
    runs (the H layer the ensemble folds included), cost layers, commuted
    Paulis, probabilities, then shots, each over the whole vector."""
    ens = _prepare(circ, cfg, precision)
    probs, pooled = [], []
    for t in range(cfg.trajectories):
        amps = np.zeros(1 << circ.num_qubits, dtype=ens.dtype)
        amps[0] = 1.0
        if ens.start is not None:
            n = circ.num_qubits
            matrices = _group_matrices(circ.layers()[0], n, ens.dtype)
            _apply_gate_run(amps, _GateRun(n, tuple((q, m) for (q, _), m in matrices.items())))
        fire = np.zeros(ens.n_rzz, dtype=bool)
        codes = None
        if cfg.epsilon > 0.0:
            rng = oracles.jumped(derive_rng(cfg.rng_seed, "trajectory", 0), t)
            fire = rng.random(ens.n_rzz) < 15.0 / 16.0 * cfg.epsilon
            codes = rng.integers(1, 16, size=ens.n_rzz)
        k, frame = 0, 0
        for op, phase, edges in zip(ens.layers, ens.phases, ens.edges):
            if phase is None:
                engine._change_frame(amps, frame, ens.frame)  # entered at the first gate run
                frame = ens.frame
                _apply_gate_run(amps, op)
                continue
            _apply_cost_layer(amps, phase)
            m = len(op.gates)
            if fire[k : k + m].any():
                one = np.s_[None, k : k + m]
                _commute_fired(amps[None], np.array([0]), edges, fire[one], codes[one], ens.signs)
            k += m
        probs.append(oracles.probabilities(amps))
        rng = oracles.jumped(derive_rng(cfg.rng_seed, "shots", 0), t)
        pooled.append(oracles.inverse_cdf_shots(probs[-1], shots, rng))
    return probs, np.concatenate(pooled)


def first_firing_layers(cfg, n_rzz, layer_size):
    """Per trajectory, the cost layer of its first Pauli, None if it fires none."""
    out = []
    for t in range(cfg.trajectories):
        rng = oracles.jumped(derive_rng(cfg.rng_seed, "trajectory", 0), t)
        fire = rng.random(n_rzz) < 15.0 / 16.0 * cfg.epsilon
        out.append(int(np.argmax(fire)) // layer_size if fire.any() else None)
    return out


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("noise_level", ["none", "mid", "all_in_layer_1"])
@pytest.mark.parametrize("n,trajectories", [(4, 7), (9, 70), (13, 7), (16, 3), (17, 3)])
def test_block_runner_matches_lone_trajectories_bitwise(n, trajectories, noise_level, precision):
    # blocks hold 2^15 >> n states (n=4: 2048, n=9: 64, n=13: 4, n=16 and
    # n=17: 1), capped at ceil(trajectories / threads); below n=16 no
    # trajectory count is a multiple of its rows with three threads, nor at
    # n=9 and n=13 with one; at n=17 the sampler reads a row as two chunks
    p = 2
    circ = build_circuit(generate_instance(n, 40 + n), LrQaoaParams(p=p))
    layer_size = n * (n - 1) // 2
    n_rzz = p * layer_size
    epsilon = {"none": 0.0, "mid": 1.0 / n_rzz, "all_in_layer_1": 1.0}[noise_level]
    cfg = DepolarizingConfig(epsilon, trajectories=trajectories, rng_seed=n)
    firsts = first_firing_layers(cfg, n_rzz, layer_size)
    if noise_level == "mid":
        # trajectories that fire nothing share blocks with those that fire
        assert None in firsts and any(f is not None for f in firsts)
    if noise_level == "all_in_layer_1":
        assert firsts == [0] * trajectories
    want_probs, want_shots = per_trajectory_reference(circ, cfg, precision, 3)
    want_mean = np.zeros(1 << n)
    for probs in want_probs:
        want_mean += probs
    want_mean /= trajectories
    for threads in (1, 3):
        blocks = noise._run_blocks(_prepare(circ, cfg, precision, threads=threads), cfg)
        got = [oracles.probabilities(states[r]) for states, row_of, _ in blocks for r in row_of]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want_probs]
        shots = run_noisy_ensemble(circ, cfg, 3, precision, threads=threads)
        assert shots.indices.tobytes() == want_shots.tobytes()
        assert shots.norm_drift == max(abs(np.cumsum(w)[-1] - 1.0) for w in want_probs)
        mean = noisy_expected_probs(circ, cfg, precision, threads=threads)
        assert mean.tobytes() == want_mean.tobytes()


def test_ensemble_counts_fired_paulis():
    circ = build_circuit(generate_instance(6, 3), LrQaoaParams(p=2))
    n_rzz = sum(g.kind == "RZZ" for g in circ.gates)
    clean = run_noisy_ensemble(circ, DepolarizingConfig(0.0, trajectories=9), 2, "fp64")
    np.testing.assert_array_equal(clean.paulis_fired, np.zeros(9, dtype=np.int64))
    cfg = DepolarizingConfig(0.02, trajectories=30, rng_seed=4)
    noisy = run_noisy_ensemble(circ, cfg, 2, "fp64", threads=3)
    root = derive_rng(cfg.rng_seed, "trajectory", 0)
    want = [
        int((oracles.jumped(root, t).random(n_rzz) < 15.0 / 16.0 * 0.02).sum())
        for t in range(cfg.trajectories)
    ]
    np.testing.assert_array_equal(noisy.paulis_fired, want)
    assert 0 in want and max(want) > 1


def test_zero_noise_probs_match_noiseless_exactly():
    inst = generate_instance(6, 7)
    circ = build_circuit(inst, LrQaoaParams(p=3))
    ideal = oracles.probabilities(run_circuit(circ, "fp32").amps)
    noisy = noisy_expected_probs(circ, DepolarizingConfig(0.0, trajectories=1), "fp32")
    np.testing.assert_array_equal(noisy, ideal)


def test_zero_noise_trajectory_matches_blocked_run_exactly():
    # n=17 is above the 2^12-amplitude blocks of the low-bit rotations
    circ = build_circuit(generate_instance(17, 3), LrQaoaParams(p=1))
    ideal = oracles.probabilities(run_circuit(circ, "fp32").amps)
    noisy = noisy_expected_probs(circ, DepolarizingConfig(0.0, trajectories=1), "fp32")
    np.testing.assert_array_equal(noisy, ideal)


def test_zero_noise_shots_match_noiseless_exactly():
    inst = generate_instance(6, 7)
    circ = build_circuit(inst, LrQaoaParams(p=3))
    sv = run_circuit(circ, "fp32")
    baseline = sample(sv, 200, rng_seed=5)
    ensemble = run_noisy_ensemble(
        circ, DepolarizingConfig(0.0, trajectories=1, rng_seed=5), 200, "fp32"
    )
    np.testing.assert_array_equal(ensemble.indices, baseline.indices)
    assert ensemble.source == "noisy(epsilon=0, trajectories=1)"


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", [6, 17])
def test_zero_noise_trajectory_is_run_circuit_bytes(n, precision):
    # both start from the folded H layer; n=17 runs the high groups as strided passes
    circ = build_circuit(generate_instance(n, 11), LrQaoaParams(p=2))
    sv = run_circuit(circ, precision)
    cfg = DepolarizingConfig(0.0, trajectories=1, rng_seed=n)
    noisy = noisy_expected_probs(circ, cfg, precision)
    assert noisy.tobytes() == oracles.probabilities(sv.amps).tobytes()
    shots = run_noisy_ensemble(circ, cfg, 50, precision)
    assert shots.indices.tobytes() == sample(sv, 50, rng_seed=n).indices.tobytes()


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", [6, 17])
def test_clean_state_is_run_circuit_bytes(n, precision):
    # the noisy simulate's ideal baseline: the clean row alone, on the ensemble's phases
    circ = build_circuit(generate_instance(n, 3), LrQaoaParams(p=3))
    ens = _prepare(circ, DepolarizingConfig(0.05, trajectories=4), precision)
    got = _clean_state(ens)
    assert got.amps.tobytes() == run_circuit(circ, precision).amps.tobytes()


def test_trajectories_are_reproducible_and_distinct():
    inst = generate_instance(5, 1)
    circ = build_circuit(inst, LrQaoaParams(p=2))
    cfg = DepolarizingConfig(0.2, trajectories=3, rng_seed=9)
    a = noisy_expected_probs(circ, cfg, "fp64")
    b = noisy_expected_probs(circ, cfg, "fp64")
    np.testing.assert_array_equal(a, b)
    # a different seed reshuffles the fired Paulis
    c = noisy_expected_probs(circ, DepolarizingConfig(0.2, 3, rng_seed=10), "fp64")
    assert not np.array_equal(a, c)


def test_threaded_ensemble_matches_serial():
    inst = generate_instance(5, 2)
    circ = build_circuit(inst, LrQaoaParams(p=2))
    cfg = DepolarizingConfig(0.1, trajectories=8, rng_seed=3)
    serial = noisy_expected_probs(circ, cfg, "fp64", threads=1)
    threaded = noisy_expected_probs(circ, cfg, "fp64", threads=4)
    np.testing.assert_allclose(serial, threaded, atol=1e-15)
    s_shots = run_noisy_ensemble(circ, cfg, 20, "fp64", threads=1)
    t_shots = run_noisy_ensemble(circ, cfg, 20, "fp64", threads=4)
    np.testing.assert_array_equal(s_shots.indices, t_shots.indices)


def test_threaded_ensemble_bounds_results_in_flight(monkeypatch):
    # block sizes in trajectories, in submission order
    submitted = []

    class CountingPool(noise.ThreadPoolExecutor):
        def submit(self, fn, ens, block):
            submitted.append(len(block))
            return super().submit(fn, ens, block)

    monkeypatch.setattr(noise, "ThreadPoolExecutor", CountingPool)
    # n=13 holds four states per block, so 40 trajectories make many blocks
    circ = build_circuit(generate_instance(13, 2), LrQaoaParams(p=1))
    cfg = DepolarizingConfig(0.1, trajectories=40, rng_seed=3)
    threads = 2
    blocks = noise._run_blocks(_prepare(circ, cfg, "fp64", threads=threads), cfg)
    for reading, (_, row_of, _) in enumerate(blocks):
        assert len(row_of) == submitted[reading]
        # the blocks submitted after the one being read
        assert len(submitted) - reading - 1 < 2 * threads
    assert sum(submitted) == cfg.trajectories
    assert len(submitted) > 2 * threads


def test_trajectory_average_matches_density_matrix():
    inst = generate_instance(3, 11)
    circ = build_circuit(inst, LrQaoaParams(p=1))
    exact = oracles.depolarized_probs(circ, 0.08)
    mc = noisy_expected_probs(circ, DepolarizingConfig(0.08, trajectories=3000, rng_seed=9), "fp64")
    assert 0.5 * np.abs(exact - mc).sum() < 0.02


def test_expected_r_degrades_with_noise():
    inst = solve_instance(generate_instance(6, 4))
    circ = build_circuit(inst, LrQaoaParams(p=3))
    eps_grid = [0.0, 0.002, 0.01, 0.02, 0.05, 0.1]
    rs = [
        noisy_expected_r(circ, inst, DepolarizingConfig(e, trajectories=200, rng_seed=8), "fp64")
        for e in eps_grid
    ]
    rho, pvalue = spearmanr(eps_grid, rs)
    assert rho < -0.9
    assert pvalue < 0.01
    # and the strongest noise has pushed r toward the uniform baseline
    baseline = random_baseline_expectation(inst)
    ideal = exact_expected_r(run_circuit(circ, "fp64"), inst)
    assert abs(rs[-1] - baseline) < 0.5 * (ideal - baseline)


def test_r_overlap_arithmetic():
    assert r_overlap(0.8, 0.5, 1.0) == pytest.approx(0.6)
    assert r_overlap(0.5, 0.5, 1.0) == 0.0
    assert r_overlap(1.0, 0.5, 1.0) == 1.0
    with pytest.raises(ValidationError):
        r_overlap(0.7, 0.6, 0.6)


def test_fit_recovers_planted_decay():
    k0 = 0.9
    xs = np.linspace(0.1, 4.0, 12)
    fit = fit_k0([(x, 2.0 ** (-k0 * x)) for x in xs])
    assert fit.k0 == pytest.approx(0.9, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_excluded == 0


def test_fit_single_point():
    fit = fit_k0([(1.0, 0.25)])
    assert fit.k0 == pytest.approx(2.0)
    assert fit.r_squared == 1.0


def test_fit_excludes_dead_points():
    k0 = 1.2
    pts = [(x, 2.0 ** (-k0 * x)) for x in (0.5, 1.0, 2.0)]
    pts += [(6.0, 0.0), (8.0, -0.01)]
    fit = fit_k0(pts)
    assert fit.n_excluded == 2
    assert fit.k0 == pytest.approx(1.2, abs=1e-9)
    assert len(fit.points) == 3


def test_fit_needs_usable_points():
    with pytest.raises(FitError):
        fit_k0([(1.0, 0.0), (2.0, -0.5)])
    with pytest.raises(FitError):
        fit_k0([(0.0, 0.5)])
    # not numbers the fit can use, or an eps_acc whose square overflows
    nan, inf = float("nan"), float("inf")
    for bad in [(nan, 0.5), (inf, 0.5), (-1.0, 0.5), (0.5, inf), (0.5, nan), (1e308, 0.5)]:
        with pytest.raises(FitError):
            fit_k0([(1.0, 0.25), bad])


def test_predict_r_overlap_roundtrip():
    assert predict_r_overlap(0.5, 100, 0.01) == pytest.approx(2.0 ** (-0.5))
    with pytest.raises(ValidationError):
        predict_r_overlap(-1.0, 100, 0.01)
    with pytest.raises(ValidationError):
        predict_r_overlap(0.5, -1, 0.01)
    with pytest.raises(ValidationError):
        predict_r_overlap(0.5, 100, 1.5)


def test_ensemble_pools_shots_per_trajectory():
    inst = generate_instance(4, 6)
    circ = build_circuit(inst, LrQaoaParams(p=1))
    cfg = DepolarizingConfig(0.3, trajectories=5, rng_seed=2)
    shots = run_noisy_ensemble(circ, cfg, 7, "fp64")
    assert len(shots) == 35
    assert shots.source == "noisy(epsilon=0.3, trajectories=5)"


def test_noisy_probs_normalized():
    inst = generate_instance(5, 5)
    circ = build_circuit(inst, LrQaoaParams(p=2))
    probs = noisy_expected_probs(circ, DepolarizingConfig(0.25, trajectories=40, rng_seed=1), "fp64")
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(probs >= 0.0)
