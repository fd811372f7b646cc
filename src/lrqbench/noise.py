"""Two-qubit depolarizing noise via Monte Carlo Pauli trajectories.

Every RZZ gate is followed by a depolarizing channel on its qubit pair:
with probability epsilon the pair is replaced by the maximally mixed
state, ``rho -> (1 - eps) rho + eps I/4``.  Unraveled into trajectories,
that means: after the ideal gate, with probability 15 eps / 16 apply one
of the 15 non-identity two-qubit Paulis uniformly at random.  Averaging
|amplitude|^2 over trajectories recovers the channel.

Trajectories run in blocks, as rows of one array of at most 2^15
amplitudes (one row when a state is larger), through the dense engine's
executors: each run of H/RX gates is one ``_apply_gate_run`` call on the
block's active rows, and each cost layer one ``_apply_cost_layer`` call
on them from the layer's ``_CostPhase``, built once and shared by the
threads.  Its whole memory need, ``_ensemble_bytes``, counts what only
the ensemble holds besides the dense engine's, from counts alone; it is
checked once, before anything is built.  Row 0 of a block follows the
noiseless path, and starts as the amplitude of the folded H layer
(``engine._layer_plan``); a block of that row alone is ``run_circuit``'s
state bit for bit, and is the ideal baseline a noisy ``simulate`` runs
on the ensemble's phases (``_clean_state``).  A trajectory gets its own
row, a copy of row 0 after the cost layer, only at the first cost
layer where it fires a Pauli; trajectories that fire nothing share row
0's final state.  The shots of every trajectory that ends in one row
come from one call of the dense engine's streamed sampler
(``engine._draw_streamed``), which reads the row chunk by chunk, so no
float64 vector of 2^n is formed on the way to the shots.

A Pauli fired inside a layer is commuted to the layer's end: it flips
the sign of Z_i Z_j on every later edge whose qubits carry an odd number
of its X/Y components.  The later edges F that anticommute with an odd
number of the Paulis fired before them need RZZ(-2 theta_k), which all
commute, so their product is one diagonal
exp(i sum_{k in F} theta_k S_k(z)), S_k = +-1 the ZZ sign of edge k; and
the fired Paulis compose, in firing order, to one Pauli string
i^q X^x Z^z (the phase and bit masks of Aaronson and Gottesman, PRA 70,
052328, 2004).  From its first gate run on, a block's rows are in the
circuit's S-dagger frame on the qubits f (``engine._layer_plan``), where
the string is i^(q + 3 |x & f|) X^x Z^(z ^ (x & f)), with the same
flipped edges; they never leave it, as no power of i changes the
|amplitude|^2 every reader of a row uses (``_clean_state`` alone takes
its row out).  Each cost layer of a block takes one pass
(``_commute_fired``) over all the rows that fire in it: a prefix XOR of
their fired Paulis' X/Y qubit masks gives every row's F, x, z and q, and
then, a chunk of at most 2^15 amplitudes at a time, one ``take`` gathers
every row at l ^ x, and the phases, from float64 angles over the ZZ
signs of ``_sign_table`` (built once per ensemble), and units and signs,
each +-1 or +-i, are multiplied in.  This is the time-ordered product,
global phase included, up to rounding; its scratch is bounded by the
block's rows of one chunk and |F|, not by the state, and counted by
``_ensemble_bytes``; and every row gets the operations of its trajectory
run alone, bit for bit.

Noise strength aggregates as eps_acc = N_2q * eps, and the overlap ratio

    r_ovl = (r_noisy - r_random) / (r_ideal - r_random)

is expected to decay as 2^(-k0 * eps_acc); ``fit_k0`` recovers k0 by a
least-squares line through the origin on -log2(r_ovl) versus eps_acc,
dropping non-positive overlaps (their count is reported).

Trajectory t draws from stream t of the families "trajectory" and
"shots" (``rng.StreamFamily``: one key each, stream t at counter t), so
runs are reproducible and neither the blocks nor the thread count
(threads run whole blocks) can change results.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitIR, CostLayer, GateOp
from .engine import (
    _GATE_BLOCK_BITS,
    _UNITS,
    Precision,
    ShotSet,
    StateVector,
    _apply_cost_layer,
    _apply_gate_run,
    _change_frame,
    _cost_layer_bytes,
    _CostPhase,
    _Counts,
    _GateRun,
    _draw_streamed,
    _gate_list_bytes,
    _group_bytes,
    _layer_plan,
    _scratch_bytes,
    _shot_bytes,
    _squared_chunks,
    check_memory,
    expected_r_from_probs,
    state_bytes,
)
from .errors import FitError, ValidationError
from .problem import WmcInstance
from .rng import StreamFamily

_PAULI_BRANCH = 15.0 / 16.0


@dataclass(frozen=True)
class DepolarizingConfig:
    """Channel strength, trajectory count, and the seed all streams derive from."""

    epsilon: float
    trajectories: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.trajectories < 1:
            raise ValidationError(f"need at least one trajectory, got {self.trajectories}")


def epsilon_accumulated(n_2q: int, epsilon: float) -> float:
    """Total accumulated error of a circuit: two-qubit gate count times epsilon."""
    return n_2q * epsilon


# ---------------------------------------------------------------------------
# trajectories

# Per two-qubit Pauli code 0..15, whose base-4 digits are the Paulis on an
# edge's qubits a and b (0..3: I, X, Y, Z): whether a and b carry X (row
# 0) and Z (row 1) in the code as i^y X^x Z^z, with Y = i X Z.
_PAULI_TERMS = np.array(
    [
        [[divmod(code, 4)[side] in carries for code in range(16)] for side in (0, 1)]
        for carries in ((1, 2), (2, 3))
    ],
    np.uint64,
)
# Finished blocks held per worker thread before the consumer reads them.
_IN_FLIGHT_PER_THREAD = 2
# Sign rows ``_commute_fired`` gathers for a group of rows at a time (int8).
_GATHER_BYTES = 1 << 16


@dataclass(frozen=True)
class _Edges:
    """A cost layer's RZZ gates as arrays: angles theta_k (float64), qubits
    qa_k and qb_k (intp) and their bits 2^qa_k and 2^qb_k (uint64, 2 by
    edges), in gate order, and the S-dagger frame the rows are in there
    (none before the first gate run), as a mask."""

    theta: np.ndarray
    qa: np.ndarray
    qb: np.ndarray
    bits: np.ndarray
    frame: int = 0

    @classmethod
    def of(cls, gates: tuple[GateOp, ...], frame: int = 0) -> "_Edges":
        qa, qb = (np.array([g.qubits[i] for g in gates], np.intp) for i in (0, 1))
        bits = np.array([[1 << int(q) for q in qs] for qs in (qa, qb)], np.uint64)
        return cls(np.array([g.theta for g in gates], np.float64), qa, qb, bits, frame)


@dataclass(frozen=True)
class _Ensemble:
    """What every trajectory of one run shares: the folded start amplitude
    (None when the H layer does not fold), the circuit's S-dagger frame
    and executed layers with each gate run's group matrices, each cost
    layer's read-only ``_CostPhase`` and ``_Edges`` (None for a gate run),
    the RZZ count the draws cover, the ZZ sign table of ``_sign_table``,
    the rows of a block, and the workers that each run one at a time."""

    num_qubits: int
    dtype: np.dtype
    start: np.generic | None
    frame: int
    layers: list[CostLayer | _GateRun]
    phases: list[_CostPhase | None]
    edges: list[_Edges | None]
    n_rzz: int
    signs: np.ndarray
    rows: int
    workers: int


@dataclass(frozen=True)
class _Block:
    """The draws of a block of consecutive trajectories: the fire and codes
    rows (bool and int64, one entry per RZZ gate) of those that fire a
    Pauli, in trajectory order, and per trajectory its row in them, -1 for
    one that fires nothing."""

    fire: np.ndarray
    codes: np.ndarray
    slots: list[int]

    def __len__(self) -> int:
        return len(self.slots)


def _block_rows(num_qubits: int, trajectories: int, threads: int) -> int:
    """Rows of a block: as many states as fill 2^_GATE_BLOCK_BITS amplitudes
    (one when a state is larger), capped at each thread's share of the
    trajectories."""
    rows = max(1, (1 << _GATE_BLOCK_BITS) >> num_qubits)
    return min(rows, -(-trajectories // threads))


def _draw_bytes(rows: int, n_rzz: int) -> int:
    """Bytes of one block's draws: fire (bool) and codes (int64) rows for
    each of ``rows`` trajectories."""
    return rows * n_rzz * 9


def _ensemble_bytes(
    counts: _Counts,
    precision: Precision,
    trajectories: int,
    threads: int = 1,
    held: int = 0,
    baseline: int | None = None,
) -> int:
    """The bytes an ensemble of ``trajectories`` on ``threads`` needs, with
    ``held`` bytes of the caller's; fewer than one thread is refused.

    To the gate list and the dense engine's ``_scratch_bytes`` for its
    min(threads, trajectories) workers (the larger of executor and tail
    with one, whose consumer samples a block after running it, and both
    with more, whose consumer samples while they run) this adds the
    other cost layers' phases and gate runs' matrices, the sign table,
    each worker's ``_correction_bytes``, the blocks in flight, each held
    from the start of its run until its consumer drops it, and their
    draws and those of the block being cut.  The draws' streams add no
    term: a stream family holds one generator however many it serves.

    With ``baseline`` draws, the larger of that and the ideal baseline a
    noisy ``simulate`` runs first (``_clean_state``): one state, one
    worker's executor or the dense tail with those draws, the gate list,
    the sign table and every cost layer's phase, all alive.
    """
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    n = counts.num_qubits
    rows, workers = _block_rows(n, trajectories, threads), min(threads, trajectories)
    in_flight = 1 if workers == 1 else _IN_FLIGHT_PER_THREAD * workers
    dense = (sum if workers > 1 else max)(_scratch_bytes(n, precision, workers))
    tables = max(0, counts.cost_layers - 1) * _cost_layer_bytes(n, precision)[0]
    matrices = max(0, counts.gate_runs - 1) * _group_bytes(n, precision)
    signs = (min(n, _GATE_BLOCK_BITS) + 1) << min(n, _GATE_BLOCK_BITS)  # ``_sign_table``'s bytes
    shared = _gate_list_bytes(counts.gates) + signs + tables + matrices
    blocks = in_flight * rows * state_bytes(n, precision)
    draws = (in_flight + 1) * _draw_bytes(rows, counts.cost_layers * counts.widest)
    correction = workers * _correction_bytes(n, counts.widest, precision.dtype, rows)
    need = blocks + dense + shared + correction + draws + held
    if baseline is None:
        return need
    return max(need, state_bytes(n, precision) + max(_scratch_bytes(n, precision, 1, baseline)) + shared)


def _prepare(
    circuit: CircuitIR,
    cfg: DepolarizingConfig,
    precision: Precision | str = Precision.FP32,
    memory_budget: int | None = None,
    threads: int = 1,
    held: int = 0,
    baseline: int | None = None,
) -> _Ensemble:
    """The ensemble of ``cfg``'s trajectories on ``threads``, built once its
    ``_ensemble_bytes`` with ``held`` and ``baseline`` fits the budget."""
    precision = Precision.coerce(precision)
    n = circuit.num_qubits
    need = _ensemble_bytes(_Counts.of(circuit), precision, cfg.trajectories, threads, held, baseline)
    check_memory(need, memory_budget, f"a noisy ensemble of {n} qubits at {precision.value}")
    start, frame, steps = _layer_plan(circuit, n, precision.dtype)
    layers, edges, framed = [op for op, *_ in steps], [], 0
    for op in layers:  # the rows enter the frame at the first gate run
        edges.append(_Edges.of(op.gates, framed) if isinstance(op, CostLayer) else None)
        framed = framed if isinstance(op, CostLayer) else frame
    phases = [_CostPhase(op) if isinstance(op, CostLayer) else None for op in layers]
    n_rzz = sum(len(op.gates) for op in layers if isinstance(op, CostLayer))
    rows, workers = _block_rows(n, cfg.trajectories, threads), min(threads, cfg.trajectories)
    return _Ensemble(n, precision.dtype, start, frame, layers, phases, edges, n_rzz, _sign_table(n), rows, workers)


def _blocks(ens: _Ensemble, cfg: DepolarizingConfig):
    """The trajectories' draws in order, cut into ``_Block``s.  Trajectory t
    draws from stream t of the "trajectory" family: which RZZ gates fire a
    Pauli and, if any does, which one each; at epsilon 0 nothing is drawn.
    A block needs a row per trajectory that fires plus one clean row shared
    by those that fire nothing, and is closed before it would need more
    than ``ens.rows``."""
    rows = ens.rows
    streams = StreamFamily(cfg.rng_seed, "trajectory") if cfg.epsilon else None
    threshold = _PAULI_BRANCH * cfg.epsilon
    slots, firing, clean = [], 0, False
    fire, codes = np.empty((rows, ens.n_rzz), bool), np.empty((rows, ens.n_rzz), np.int64)
    for t in range(cfg.trajectories):
        fires = None
        if streams is not None:
            rng = streams[t]
            fires = rng.random(ens.n_rzz) < threshold
            fires = fires if fires.any() else None
        if slots and firing + (fires is not None) + (clean or fires is None) > rows:
            yield _Block(fire[:firing], codes[:firing], slots)
            slots, firing, clean = [], 0, False
            fire, codes = np.empty_like(fire), np.empty_like(codes)
        if fires is None:
            slots.append(-1)
            clean = True
        else:
            fire[firing] = fires
            codes[firing] = rng.integers(1, 16, size=ens.n_rzz)
            slots.append(firing)
            firing += 1
    yield _Block(fire[:firing], codes[:firing], slots)


def _sign_table(num_qubits: int) -> np.ndarray:
    """ZZ signs over one chunk of 2^low amplitudes, low = min(n,
    _GATE_BLOCK_BITS): row q < low holds 1 - 2 bit_q(l) over the chunk's
    offsets l, and row low holds ones, for the qubits at or above ``low``,
    which are constant over a chunk."""
    low = min(num_qubits, _GATE_BLOCK_BITS)
    signs = np.ones((low + 1, 1 << low), np.int8)
    for q in range(low):
        signs[q].reshape(-1, 2, 1 << q)[:, 1] = -1
    return signs


def _correction_bytes(num_qubits: int, edges: int, dtype: np.dtype, rows: int = 1) -> int:
    """Scratch of one ``_commute_fired`` call on up to ``rows`` rows of a
    block, over a layer of at most ``edges`` edges: the gathered sign rows
    of a group of rows, at most _GATHER_BYTES or one row's edges over a
    chunk, and their product's second operand (int8); per row and chunk, a
    gather index (intp), a sign (int8), two chunks of angles (float64), one
    of reduced angles in the state's real precision, and three in its
    precision: the phases and two moved chunks; and per row and edge, 96
    bytes of the draws, masks and edge lists the pass starts from."""
    chunk = 1 << min(num_qubits, _GATE_BLOCK_BITS)
    per_chunk = 25 + dtype.itemsize // 2 + 3 * dtype.itemsize
    return 2 * max(_GATHER_BYTES, edges * chunk) + rows * (chunk * per_chunk + 96 * edges)


def _flipped(edges: _Edges, fire: np.ndarray, codes: np.ndarray):
    """Per row of draws over a layer, the edges that anticommute with an odd
    number of the Paulis fired before them (bool, rows by edges), and the
    Pauli string i^q X^x Z^z its fired Paulis compose to in firing order,
    in the layer's frame: the qubit masks x and z (uint64) and q, which
    counts mod 4.

    The Pauli fired at edge j is i^y_j X^x_j Z^z_j (``_PAULI_TERMS``).  The
    flips before edge k, before_k, are the exclusive prefix XOR of the x_j,
    and edge k anticommutes when they hold exactly one of its qubits.  x and
    z are the XORs of all the x_j and z_j, and moving each Z^z_k right past
    the X^x_j fired before it gives q = sum_k y_k + 2 |z_k & before_k|.
    In the S-dagger frame on the qubits f, X is S-dagger X S = -i X Z and Z
    stays, so the string becomes i^(q + 3 |x & f|) X^x Z^(z ^ (x & f)).
    """
    masks = _PAULI_TERMS.take(codes * fire, axis=2)
    masks *= edges.bits[:, None]
    xz = masks[:, 0] | masks[:, 1]  # x_j and z_j
    del masks  # dropped before the prefix XOR's arrays
    after = np.bitwise_xor.accumulate(xz, axis=2)
    before = after[0] ^ xz[0]
    held = (before & edges.bits[:, None]) != 0
    # a Y sets both masks, so y_j = |x_j & z_j|; of sum_k |z_k & before_k|
    # only the parity counts
    y = np.bitwise_count(xz[0] & xz[1]).sum(axis=1)
    odd = np.bitwise_count(np.bitwise_xor.reduce(xz[1] & before, axis=1)) & 1
    x, framed = after[0, :, -1], after[0, :, -1] & np.uint64(edges.frame)
    return held[0] != held[1], x, after[1, :, -1] ^ framed, y + 2 * odd + 3 * np.bitwise_count(framed)


def _commute_fired(
    states: np.ndarray,
    rows: np.ndarray,
    edges: _Edges,
    fire: np.ndarray,
    codes: np.ndarray,
    signs: np.ndarray,
) -> None:
    """Finish a cost layer whose diagonal is applied, on the rows ``rows`` of
    ``states``, given the draws over the layer's edges of each one's
    trajectory as rows of ``fire`` and ``codes``: each row takes the phase
    of the later edges its fired Paulis anticommute with, then their Pauli
    string i^q X^x Z^z, in one pass over chunks of 2^low amplitudes, the
    width of ``signs`` (the ensemble's ``_sign_table``).

    A state of several chunks is a block of one row (``_block_rows``), so
    the rows share x >> low and z >> low.  Chunk c of each row takes chunk
    c ^ (x >> low) at offsets m ^ u, u = x mod 2^low, by one flat ``take``,
    times the phases there, the unit i^q (-1)^|z & x| (-1)^|(z >> low) & c|
    and the sign (-1)^|z & m|; chunks that trade places are both read
    before either is written.  An angle is an einsum (no BLAS) in float64
    over the edges' sign rows over m, weighted by theta_k and the edge's
    sign at z0 + u, z0 the chunk's start; it is reduced to [-pi, pi] and
    rounded to the state's real precision for cos and sin.  Units and
    signs are +-1 or +-i, so each row gets the products of its trajectory
    run alone, in its order, besides exact ones: the phase 1 of a row with
    no flipped edge, and a unit or sign of 1 that another row needs.
    """
    chunk = signs.shape[1]
    flipped, x, z, q = _flipped(edges, fire, codes)
    counts = flipped.sum(axis=1)
    phased = np.flatnonzero(counts).tolist()
    k = np.nonzero(flipped)[1]
    theta, qa, qb = edges.theta[k], edges.qa[k], edges.qb[k]
    low_x = (x & (chunk - 1)).astype(np.intp)
    moves = np.repeat(low_x, counts)  # per flipped edge, the u of its row
    ends = np.cumsum(counts[phased]).tolist()
    starts = [0] + ends[:-1]
    # groups of consecutive phased rows whose sign rows, up to _GATHER_BYTES, stay in cache
    groups, first = [], 0
    for i in range(1, len(ends) + 1):
        if i == len(ends) or (ends[i] - starts[first]) * chunk > _GATHER_BYTES:
            groups.append((first, i))
            first = i
    # every row's flat gather index, and its sign unless every row's is 1
    index = np.arange(chunk) ^ low_x[:, None]
    index += (rows * states.shape[-1])[:, None]
    low_z = (z & (chunk - 1)).astype(np.uint16)
    sign = None
    if low_z.any():
        sign = (np.bitwise_count(np.arange(chunk, dtype=np.uint16) & low_z[:, None]) & 1).view(np.int8)
        sign *= -2
        sign += 1
    power = q + 2 * np.bitwise_count(z & x)
    # a state of several chunks is a block of one row, its sign rows gathered once
    many, gathered = states.shape[-1] > chunk, None
    high, high_z = int(x[0]) // chunk, int(z[0]) // chunk
    flat, parts = states.reshape(-1), states.reshape(len(states), -1, chunk)
    for c in range(parts.shape[1]):
        if c ^ high < c:
            continue  # written with its partner
        pair = (c, c ^ high) if high else (c,)
        moved = []
        for d in pair:
            z0, phase = (d ^ high) * chunk, None
            if phased:
                v = z0 + moves
                w = theta * (1 - 2 * ((v >> qa) & 1)) * (1 - 2 * ((v >> qb) & 1))
                angle = np.empty(index.shape)
                angle[counts == 0] = 0.0
                for first, last in groups:
                    a, b = starts[first], ends[last - 1]
                    if gathered is None or not many:
                        # "clip" sends every qubit at or above low to the last row, the ones
                        gathered = signs.take(qa[a:b], axis=0, mode="clip")
                        gathered *= signs.take(qb[a:b], axis=0, mode="clip")
                    for i in range(first, last):
                        lo, hi = starts[i], ends[i]
                        np.einsum("k,kz->z", w[lo:hi], gathered[lo - a : hi - a], out=angle[phased[i]])
                    if not many:
                        gathered = None  # dropped before the next group's
                # angle - 2 pi rint(angle / 2 pi): np.remainder takes six times longer
                turns = np.multiply(angle, 0.5 / np.pi)
                np.rint(turns, out=turns)
                turns *= 2.0 * np.pi
                angle -= turns
                reduced = angle.astype(np.finfo(states.dtype).dtype, copy=False)
                del angle, turns  # each dropped once read, to keep the peak low
                phase = np.empty(index.shape, states.dtype)
                np.cos(reduced, out=phase.real)
                np.sin(reduced, out=phase.imag)
                del reduced
            out = flat[z0:].take(index)
            if phase is not None:
                out *= phase
            unit = (power + 2 * (high_z & d).bit_count()) & 3
            if unit.any():
                out *= _UNITS.astype(states.dtype).take(unit)[:, None]
            if sign is not None:
                out *= sign
            moved.append(out)
        for d, out in zip(pair, moved):
            parts[rows, d] = out
        del moved, out  # dropped before the next pair's


def _run_block(ens: _Ensemble, block: _Block) -> tuple[np.ndarray, list[int], list[int]]:
    """Final states of a block of trajectories, given their draws, as rows
    of one array, each one's row, and the Paulis each one fired.

    Row 0 follows the noiseless path while any trajectory of the block is
    still on it.  At the first cost layer where a trajectory fires, after
    the layer's diagonal, it takes a copy of row 0, or row 0 itself when
    no other trajectory is left on it.  Each gate run and each cost layer
    is one executor call on the active rows, and each cost layer's fired
    Paulis one ``_commute_fired`` call on the rows that fire in it, so
    every row gets the operations of a trajectory run alone.
    """
    fire, codes = block.fire, block.codes
    firsts = fire.argmax(axis=1) if len(fire) else np.empty(0, np.intp)
    # a row per trajectory that fires, and row 0 kept to the end for
    # those that fire nothing (the last to fire takes it when there are none)
    states = np.zeros((len(fire) + (-1 in block.slots), 1 << ens.num_qubits), ens.dtype)
    on_clean = len(block)
    if ens.start is None:
        states[0, 0] = 1.0
    else:
        states[0] = ens.start
    row_of = np.zeros(len(fire), np.intp)
    active, k, framed = 1, 0, 0
    for op, phase, edges in zip(ens.layers, ens.phases, ens.edges):
        if phase is None:  # the rows enter the frame at the first gate run, never to leave it
            _change_frame(states[:active].reshape(-1), framed, ens.frame)
            framed = ens.frame
            _apply_gate_run(states[:active].reshape(-1), op)
            continue
        _apply_cost_layer(states[:active], phase)
        m = len(op.gates)
        leaving = np.flatnonzero((firsts >= k) & (firsts < k + m))
        on_clean -= leaving.size
        if not on_clean:
            leaving = leaving[:-1]
        states[active : active + leaving.size] = states[0]
        row_of[leaving] = np.arange(active, active + leaving.size)
        active += leaving.size
        here = np.flatnonzero(fire[:, k : k + m].any(axis=1))
        if here.size:
            _commute_fired(
                states, row_of[here], edges, fire[here, k : k + m], codes[here, k : k + m], ens.signs
            )
        k += m
    rows, paulis = row_of.tolist(), fire.sum(axis=1).tolist()
    slots = block.slots
    return states, [0 if s < 0 else rows[s] for s in slots], [0 if s < 0 else paulis[s] for s in slots]


def _run_blocks(ens: _Ensemble, cfg: DepolarizingConfig):
    """``_run_block``'s results for every block of a prepared ensemble, in
    trajectory order.

    With several workers, blocks run on a pool of that many threads and at
    most ``_IN_FLIGHT_PER_THREAD`` per worker of them are submitted and not
    yet read, so finished blocks never pile up.  The consumer drops each
    block before it asks for the next, as ``_ensemble_bytes`` counts.
    """
    blocks = _blocks(ens, cfg)
    if ens.workers > 1:
        return _pooled(ens, blocks)
    return (_run_block(ens, block) for block in blocks)


def _pooled(ens: _Ensemble, blocks):
    """``_run_block`` over ``blocks`` on a pool of ``ens.workers``, read in order."""
    with ThreadPoolExecutor(max_workers=ens.workers) as pool:
        pending = deque()
        for block in blocks:
            pending.append(pool.submit(_run_block, ens, block))
            if len(pending) >= _IN_FLIGHT_PER_THREAD * ens.workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _clean_state(ens: _Ensemble) -> StateVector:
    """The noiseless final state, ``run_circuit``'s bit for bit: a block of
    the clean row alone, run on the ensemble's phases, out of the frame."""
    none = np.empty((0, ens.n_rzz), bool)
    states, _, _ = _run_block(ens, _Block(none, none.astype(np.int64), [-1]))
    _change_frame(states[0], ens.frame, 0)
    return StateVector(ens.num_qubits, states[0])


def _sample_ensemble(ens: _Ensemble, cfg: DepolarizingConfig, shots_per_trajectory: int) -> ShotSet:
    """``run_noisy_ensemble``'s shots from a prepared ensemble."""
    indices = np.empty((cfg.trajectories, shots_per_trajectory), np.uint64)
    streams = StreamFamily(cfg.rng_seed, "shots")
    fired, drift = [], 0.0
    for states, row_of, paulis in _run_blocks(ens, cfg):
        t0 = len(fired)
        mine = indices[t0 : t0 + len(row_of)]
        u = np.empty(mine.shape)
        sharing = {}  # row -> the block's trajectories that end in it
        for j, r in enumerate(row_of):
            streams[t0 + j].random(out=u[j])
            sharing.setdefault(r, []).append(j)
        for r, js in sharing.items():
            mine[js], total = _draw_streamed(states[r], u[js])
            drift = max(drift, abs(total - 1.0))
        fired += paulis
        del states, u  # dropped before the next block runs
    return ShotSet(
        num_qubits=ens.num_qubits,
        indices=indices.reshape(-1),
        rng_seed=cfg.rng_seed,
        source=f"noisy(epsilon={cfg.epsilon:g}, trajectories={cfg.trajectories})",
        paulis_fired=np.array(fired, dtype=np.int64),
        norm_drift=drift,
    )


def run_noisy_ensemble(
    circuit: CircuitIR,
    cfg: DepolarizingConfig,
    shots_per_trajectory: int,
    precision: Precision | str = Precision.FP32,
    memory_budget: int | None = None,
    threads: int = 1,
) -> ShotSet:
    """Sample every trajectory and pool the shots in trajectory order.

    Trajectory t samples with stream t of the config seed's "shots"
    family, whose stream 0 is the one ``sample`` draws from, so at epsilon
    0 with one trajectory this reproduces the noiseless ``sample`` byte for
    byte.  The trajectories that end in one row of a block draw in one
    sampler call, which also gives the row's squared norm.  The result
    carries the number of Paulis each trajectory fired, and the largest
    drift of a final state's squared norm from 1.  The budget holds the
    blocks beside the pooled shots.
    """
    if shots_per_trajectory < 1:
        raise ValidationError(f"shot count must be positive, got {shots_per_trajectory}")
    held = _shot_bytes(circuit.num_qubits, cfg.trajectories * shots_per_trajectory)
    ens = _prepare(circuit, cfg, precision, memory_budget, threads, held)
    return _sample_ensemble(ens, cfg, shots_per_trajectory)


def noisy_expected_probs(
    circuit: CircuitIR,
    cfg: DepolarizingConfig,
    precision: Precision | str = Precision.FP32,
    memory_budget: int | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Trajectory-averaged basis-state distribution (channel average): each
    trajectory's |amplitude|^2 added in trajectory order, chunk by chunk,
    into a float64 vector the budget counts."""
    ens = _prepare(circuit, cfg, precision, memory_budget, threads, 8 << circuit.num_qubits)
    acc = np.zeros(1 << circuit.num_qubits)
    for states, row_of, _ in _run_blocks(ens, cfg):
        for r in row_of:
            for lo, p in _squared_chunks(states[r]):
                acc[lo : lo + p.size] += p
        del states  # dropped before the next block runs
    acc /= cfg.trajectories
    return acc


def noisy_expected_r(
    circuit: CircuitIR,
    inst: WmcInstance,
    cfg: DepolarizingConfig,
    precision: Precision | str = Precision.FP32,
    memory_budget: int | None = None,
    threads: int = 1,
) -> float:
    """Mean approximation ratio under noise, exact per trajectory (no shots)."""
    probs = noisy_expected_probs(circuit, cfg, precision, memory_budget, threads)
    return expected_r_from_probs(probs, inst)


# ---------------------------------------------------------------------------
# overlap ratio and decay fit


def r_overlap(r_qpu: float, r_random: float, r_ideal: float) -> float:
    """Where a measured ratio sits between the random and ideal baselines."""
    denom = r_ideal - r_random
    if denom == 0.0:
        raise ValidationError("overlap undefined: ideal and random baselines coincide")
    return (r_qpu - r_random) / denom


@dataclass(frozen=True)
class NoiseFit:
    """Origin-constrained fit of -log2(r_ovl) against accumulated error."""

    k0: float
    r_squared: float
    n_excluded: int
    points: tuple[tuple[float, float], ...]


def fit_k0(points) -> NoiseFit:
    """Fit r_ovl = 2^(-k0 * eps_acc) to (eps_acc, r_ovl) pairs.

    Points with r_ovl <= 0 carry no information for the log fit and are
    excluded (counted in ``n_excluded``).  A single positive point pins
    the line exactly.
    """
    pts = [(float(x), float(r)) for x, r in points]
    # the fit sums x^2; a Python float overflows to inf, without a warning
    if not all(x >= 0.0 and math.isfinite(len(pts) * x * x) and math.isfinite(r) for x, r in pts):
        raise FitError("each point needs a finite r_ovl and an eps_acc >= 0 whose square is finite")
    included = [(x, r) for x, r in pts if r > 0.0]
    n_excluded = len(pts) - len(included)
    if not included:
        raise FitError("no points with positive overlap ratio to fit")
    x = np.array([p[0] for p in included])
    y = -np.log2(np.array([p[1] for p in included]))
    sxx = float(x @ x)
    if sxx == 0.0:
        raise FitError("all usable points sit at zero accumulated error")
    k0 = float(x @ y) / sxx
    residuals = y - k0 * x
    ss_res = float(residuals @ residuals)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res < 1e-24 else 0.0
    return NoiseFit(
        k0=k0, r_squared=r_squared, n_excluded=n_excluded, points=tuple(included)
    )


def predict_r_overlap(k0: float, n_2q: int, epsilon: float) -> float:
    """Modelled overlap ratio 2^(-k0 * N_2q * epsilon)."""
    if k0 <= 0.0:
        raise ValidationError(f"decay constant must be positive, got {k0}")
    if n_2q < 0:
        raise ValidationError(f"two-qubit gate count must be non-negative, got {n_2q}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon}")
    return float(2.0 ** (-k0 * epsilon_accumulated(n_2q, epsilon)))
