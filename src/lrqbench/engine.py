"""Dense statevector simulation of the circuit's layer view.

Amplitudes live in one flat array indexed by basis state, with qubit k at
bit position k.  Each run of H/RX gates goes through one executor,
``_apply_gate_run``, as products over the qubit groups [4k, 4k + 4) and a
last one of the n mod 4 left (Haener and Steiger, arXiv:1704.01127), each
group's 2^w x 2^w matrix the Kronecker product of its qubits' gates.

A circuit runs in one frame, S-dagger^x on the qubits x that carry an RX
and no H (``_layer_plan``), where RX is the real rotation
[[c, s], [-s, c]] (S-dagger X S = -Y) and H is real: every
``build_circuit`` group matrix is real and multiplies the float view; a
group with a qubit carrying both H and RX stays complex (``_framed``).
|0...0> is in every frame, a folded H layer is filled into it, cost
layers are diagonal, and the state leaves it once, exactly, after the
last step (``_change_frame``).

Every ``np.matmul`` call writes the outputs of min(2^w, 8) rows by W
amplitudes, W = min(64, 2^(n - w)) (2W floats of the float view for a
real matrix), whatever slab, row or block it reads: OpenBLAS sets an
output's bits by its kernel and that shape alone, not by B's row stride,
place in a stacked call or column.  Other shapes round differently
(widths not a multiple of 8 in fp32 or 4 in fp64, one column, the row
form B.T @ M.T), the float32 kernels of Haswell and Zen give the columns
of a 16-row output bits that depend on their place (OpenBLAS 0.3.31), so
a group of 4 qubits takes two calls of 8 rows, and under those kernels
two threads split outputs of 256 columns or more.  At W = 64 every call
is one thread's, so the bits are the kernel's at any thread count, slab,
row or shard.

A cost layer (a run of RZZ gates, see ``CircuitIR.layers``) is
diagonal, so it runs as one elementwise phase multiply by
exp(-i (Theta/2 - C(z))), with no transcendental per amplitude.
``problem.CutDiagonal`` splits an index z into a block h = z >> b and an
offset l < 2^b (b = min(16, n)) and writes the layer's angle-weighted cut
as C = const(h) + sum of a_i(h) over the set bits of l + Q(l), so the
phase factors as exp(i (const - Theta/2)) * prod exp(i a_i) * exp(i Q(l)).
The table exp(i Q) is built once per layer, as products over the split
l = m 2^s + r, s = min(8, b) (``_CostPhase``): 2^s + 2^(b - s) + s (b - s)
exponentials, not 2^b, and the cut's table Q is never formed.  A layer
multiplies 2^k indices at a multiple of 2^k (a slab, or states as rows),
whose blocks take const and a_i from one ``block_terms`` call, then 1 + b
exponentials and two complex doubling tables each, A over the low 12 bits
of l (from exp(i (const - Theta/2))) and B over the rest (from 1).  Index
z gets (A[l & 4095] * B[l >> 12]) * exp(i Q(l)) in double precision,
rounded to the state's precision and multiplied in, over pieces of
min(2^k, 2^12) amplitudes, each reading one entry of B.  An index's
phase is the same three products whatever range, block, shard or piece
computes it, so no full-length diagonal is ever held and a shard gets
the dense bits.

Every circuit opens with an H on each qubit of |0...0>, which leaves
every amplitude equal to x (``_plus_amplitude``).  The executed layer
view, ``_layer_plan``, folds that layer: the state starts filled with x
instead of running the H gates, with the same bits.  The circuit
keeps its H gates; only the executed view drops them.  The same view and
executors serve the noisy engine.  Nothing ever renormalizes, so global
phase and accumulated rounding stay visible.

Dense and sharded runs go through one step loop, ``_run_steps``, whose
qubits from ``nq_local`` up are global: shard s owns the 2^nq_local
indices whose top bits equal s, and a dense run is one shard.  A step is
a cost layer, a gate run's groups below ``nq_local``, or one group
[q, q + w) holding j global qubits, applied on the local bits
[nq_local - w, nq_local) between two legs.  A step calls its executor
once per slab, one of ``workers`` contiguous ranges, each whole shards
(a gate run takes fewer, so a slab holds one call's columns); a cost
layer multiplies each slab's range, from its offset, by one read-only
``_CostPhase``, and the leave of the frame after the last step each
slab's by its global indices.  The executors give an index the same bits
whatever range computes it.  The outward leg (``_swap_fields``) maps the
group's qubits in order onto those local bits and the bits it displaces
onto the group's places, moving runs of 2^(nq_local - w) amplitudes and
(1 - 2^-j) of the state to another shard; the restore leg undoes it.  A
leg is one task per worker, over a strided share of pieces copied
through one buffer of at most 2^14 amplitudes.  With several workers a
step maps its tasks on a thread pool, the map returning being the
barrier; with one, they run on the calling thread.  Tasks of a step touch disjoint amplitudes and never
wait on each other, so results cannot depend on scheduling; an exception
in any aborts the run (``AbortedRunError``).  The loop times every step:
compute is the slowest slab's span (with a cost layer's ``_CostPhase``
build, and on the last step the leave of the frame), exchange the legs'
slowest shares, and the amplitudes exchanged those the outward leg moves
to another shard.

The tail of a run reads the final state once (``read_out``): each
2^16-amplitude chunk's |amplitude|^2 in float64 gives the squared norm,
the exact ratio and the sampler's running totals, kept at the end of
every piece of 2^k amplitudes, and a second pass rebuilds only the
pieces the draws land in.  So the tail holds two chunks, 24 bytes a
piece (at most 192 a draw) and O(2^(n-16)) besides the state, and its
results are those of the full probability vector, bit for bit.  The
sampler, ``_draw_streamed``, is the package's only one: the noisy engine
draws every trajectory's shots through it too.

Single precision (complex64) is the default and costs 2^(n+3) bytes;
double costs 2^(n+4).  A run's whole need, ``_run_bytes``, depends on
counts alone (``_Counts``), and ``check_memory`` refuses one over its
``memory_budget`` (by default ``DEFAULT_MEMORY_BUDGET``) before anything
is built.  This module alone bounds a run's scratch (``_scratch_bytes``).
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import math
import os
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .circuit import CircuitIR, CostLayer, GateOp, gate_counts
from .errors import AbortedRunError, CapacityError, ValidationError
from .files import write_output
from .problem import (
    _BLOCK_BITS,
    WmcInstance,
    _check_vertex_count,
    _require_optimal,
    doubling,
    indices_to_bitstrings,
)
from .rng import derive_rng

DEFAULT_MEMORY_BUDGET = 4 << 30  # bytes
_REDUCTION_CHUNK = 1 << _BLOCK_BITS  # a chunk of the tail is a block of the cut


class Precision(enum.Enum):
    FP32 = "fp32"
    FP64 = "fp64"

    @classmethod
    def coerce(cls, value: "Precision | str") -> "Precision":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValidationError(f"unknown precision {value!r}") from None

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex64 if self is Precision.FP32 else np.complex128)

    @property
    def bytes_per_amplitude(self) -> int:
        return self.dtype.itemsize


def state_bytes(num_qubits: int, precision: Precision) -> int:
    return precision.bytes_per_amplitude << num_qubits


def check_memory(need: int, budget: int | None = None, what: str = "the run") -> None:
    """Refuse ``what``, which needs ``need`` bytes, over the budget,
    ``DEFAULT_MEMORY_BUDGET`` when it is None."""
    limit = DEFAULT_MEMORY_BUDGET if budget is None else int(budget)
    if need > limit:
        shown = f"{need / (1 << 30):.1f} GiB" if need >= 1 << 30 else f"{need / (1 << 20):.1f} MiB"
        raise CapacityError(f"{what} needs {need} bytes ({shown}), budget is {limit} bytes")


@dataclass
class StateVector:
    num_qubits: int
    amps: np.ndarray

    @property
    def precision(self) -> Precision:
        return Precision.FP32 if self.amps.dtype == np.complex64 else Precision.FP64

    def norm_squared(self) -> float:
        """Sum of |amplitude|^2 in double precision: numpy's pairwise sums
        over fixed chunks (``_read``), added in order, so no BLAS thread
        count can change the bits."""
        return _read(self.amps)[0]

    def norm_tolerance(self) -> float:
        """Allowed drift of the squared norm: ``norm_tolerance`` of the state."""
        return norm_tolerance(self.num_qubits, self.precision)


def norm_tolerance(num_qubits: int, precision: Precision) -> float:
    """Allowed drift of a state's squared norm: 10 * 2^n * machine epsilon."""
    eps = np.finfo(precision.dtype).eps
    return 10.0 * (1 << num_qubits) * float(eps)


def _squared_chunks(amps: np.ndarray, buf: np.ndarray | None = None):
    """(lo, |amps[lo : lo + _REDUCTION_CHUNK]|^2) for every chunk in order,
    by ``_squares`` in row 0 of a two-row float64 buffer (``buf`` or a new
    one) that the next chunk overwrites; row 1 is free once one is yielded."""
    buf = np.empty((2, min(amps.size, _REDUCTION_CHUNK))) if buf is None else buf
    for lo in range(0, amps.size, buf.shape[1]):
        yield lo, _squares(amps[lo : lo + buf.shape[1]], *buf)


def _squares(amps: np.ndarray, p: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """``p`` = |amps|^2 in double precision: the squared real parts plus the
    squared imaginary parts, held in ``imag``, elementwise, so the bits do
    not depend on the chunking."""
    np.square(amps.real, out=p, dtype=np.float64)
    np.square(amps.imag, out=imag, dtype=np.float64)
    p += imag
    return p


def zero_state(
    num_qubits: int,
    precision: Precision | str = Precision.FP32,
    memory_budget: int | None = None,
) -> StateVector:
    """|0...0>, after checking that it fits the budget."""
    precision = Precision.coerce(precision)
    if num_qubits < 1:
        raise ValidationError(f"need at least one qubit, got {num_qubits}")
    check_memory(state_bytes(num_qubits, precision), memory_budget, f"a state of {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=precision.dtype)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


# ---------------------------------------------------------------------------
# one-qubit gates as group products

_GROUP_BITS = 4  # qubits [4k, 4k + 4) form group k
_CALL_COLUMNS = 64  # a product call writes min(2^w, 8) x min(64, 2^(n - w)) outputs
_CALL_ROWS = 8
_ROTATION_BITS = 12  # groups in the low 12 bits run as rotations of blocks
_GATE_BLOCK_BITS = 15  # the executor's scratch chunk holds 2^15 amplitudes
# A cost layer's phases and a change of frame's units are formed over pieces
# of at most 2^_PHASE_PIECE_BITS amplitudes; a block's doubling tables split
# its offsets at the same bit, so a piece reads one entry of the high table.
_PHASE_PIECE_BITS = 12
_PHASE_SPLIT_BITS = 8  # exp(i Q) is built from tables over l's low 8 bits and the rest


def _groups(num_qubits: int) -> list[tuple[int, int]]:
    """(first qubit, width) of every group, ascending."""
    return [(q, min(_GROUP_BITS, num_qubits - q)) for q in range(0, num_qubits, _GROUP_BITS)]


def _gate_matrix(gate: GateOp) -> np.ndarray:
    """H or RX as a 2 x 2 complex128 matrix, row the output bit."""
    if gate.kind == "H":
        return np.array([[1, 1], [1, -1]], np.complex128) / math.sqrt(2.0)
    if gate.kind != "RX":
        raise ValidationError(f"{gate.kind} runs inside a cost layer, not as a single gate")
    c, s = math.cos(gate.theta / 2.0), -1j * math.sin(gate.theta / 2.0)
    return np.array([[c, s], [s, c]], np.complex128)


_UNITS = np.array([1, 1j, -1, -1j])  # i^e; a product by one is exact


def _framed(m: np.ndarray, f: int) -> np.ndarray:
    """A group matrix in the S-dagger frame on the group's bits f: m times
    i^(|k & f| - |j & f|) at (j, k), exact, in m's real type where that is
    real, else complex."""
    e = np.bitwise_count(np.arange(len(m)) & f)
    r = m * _UNITS.astype(m.dtype).take((e[None, :] - e[:, None]) & 3)  # uint8 wraps by 256, 0 mod 4
    return r if r.imag.any() else r.real.copy()


def _change_frame(amps: np.ndarray, old: int, new: int, offset: int = 0, fill=None) -> None:
    """Move the indices [offset, offset + amps.size), or a flat batch of
    states from 0, from the S-dagger frame on qubits ``old`` to ``new``'s:
    index z times i^(|z & old| - |z & new|), exactly (with ``fill``, that
    times ``fill`` written), a piece of 2^min(12, the size's power of two)
    at a time from row e of four tables, e the exponent of its start: each
    unit is taken from ``_UNITS``, never formed as a product, so no zero's
    sign depends on where a piece starts."""
    leave, enter = old & ~new, new & ~old
    if not leave | enter and fill is None:
        return
    k = min(_PHASE_PIECE_BITS, (amps.size & -amps.size).bit_length() - 1)
    l = np.arange(1 << k)
    turns = (np.bitwise_count(l & leave) + 3 * np.bitwise_count(l & enter)) & 3
    tables = _UNITS.astype(amps.dtype).take(np.add.outer(np.arange(4), np.arange(4)) & 3).take(turns, axis=1)
    for z in range(offset, offset + amps.size, 1 << k):
        piece = amps[z - offset : z - offset + (1 << k)]
        e = ((z & leave).bit_count() + 3 * (z & enter).bit_count()) & 3
        np.multiply(tables[e], piece if fill is None else fill, out=piece)


@dataclass(frozen=True, eq=False)
class _GateRun:
    """A run of H/RX gates as group products: the circuit's qubit count,
    which fixes every call's columns, and each group's lowest bit and 2^w x
    2^w matrix, ascending, in the circuit's frame (``_layer_plan``)."""

    num_qubits: int
    products: tuple[tuple[int, np.ndarray], ...]


def _group_matrices(gates, num_qubits: int, dtype: np.dtype) -> dict[tuple[int, int], np.ndarray]:
    """The matrix in ``dtype`` of every group (first qubit, width) that
    ``gates`` act on: the Kronecker product, highest qubit outermost, of
    each qubit's gates multiplied in run order, formed elementwise in
    complex128 (no BLAS) and rounded once."""
    per_qubit = {}
    for g in gates:
        u, q = _gate_matrix(g), g.qubits[0]
        per_qubit[q] = (u[:, :, None] * per_qubit[q][None]).sum(axis=1) if q in per_qubit else u
    matrices = {}
    for q, w in _groups(num_qubits):
        if any(k in per_qubit for k in range(q, q + w)):
            m = np.ones((1, 1), np.complex128)
            for k in range(q, q + w):
                u = per_qubit.get(k, np.eye(2, dtype=np.complex128))
                # np.kron(u, m), with the same products and less overhead
                m = (u[:, None, :, None] * m[None, :, None, :]).reshape(2 * len(m), 2 * len(m))
            matrices[q, w] = m.astype(dtype)
    return matrices


def _plus_amplitude(num_qubits: int, dtype: np.dtype) -> np.generic:
    """What an H on every qubit leaves everywhere on |0...0>: each H group
    matrix's [0, 0] entry multiplied in, group by group, as its call does."""
    x = np.dtype(dtype).type(1.0)
    for m in _group_matrices([GateOp("H", (q,)) for q in range(num_qubits)], num_qubits, dtype).values():
        x = x * m[0, 0]
    return x


def _apply_gate_run(amps: np.ndarray, run: _GateRun) -> None:
    """Apply a gate run to ``amps``, a state, slab or flat batch of states:
    a real matrix multiplies the float view.
    Groups in the low bits = min(n, 12, the size's power of two) rotate
    blocks of 2^bits, a chunk at a time: each copies a block, the bits up
    to its top rotated to the top, to scratch and multiplies that back in
    C order; the bits above the last take one more rotation.  Each other
    group is a pass of M @ view(-1, 2^w, 2^q), a piece of columns at a
    time through scratch, one chunk of at most 2^_GATE_BLOCK_BITS."""
    n, size = run.num_qubits, amps.size
    bits = min(n, _ROTATION_BITS, (size & -size).bit_length() - 1)
    groups = [(q, len(m).bit_length() - 1, m) for q, m in run.products]
    low = [g for g in groups if g[0] + g[1] <= bits]
    low += [(bits, 0, None)] * (0 < low[-1][0] + low[-1][1] < bits if low else False)
    chunk = min(size, 1 << _GATE_BLOCK_BITS)
    spare = np.empty(chunk, amps.dtype)
    for lo in range(0, size if low else 0, chunk):
        x = amps[lo : lo + chunk]
        blocks, t, top = x.size >> bits, spare[: x.size], 0
        for q, w, m in low:
            r, top = q + w - top, q + w
            np.copyto(t.reshape(blocks, 1 << r, -1), x.reshape(blocks, -1, 1 << r).transpose(0, 2, 1))
            if m is None:
                np.copyto(x, t)
            else:  # f = 2 on the float view of a real matrix
                cols = x.itemsize // m.itemsize * min(_CALL_COLUMNS, 1 << (n - w))
                src, dst = (a.view(m.dtype).reshape(blocks, 1 << w, -1, cols).transpose(0, 2, 1, 3) for a in (t, x))
                for j in range(0, 1 << w, _CALL_ROWS):
                    np.matmul(m[j : j + _CALL_ROWS], src, out=dst[..., j : j + _CALL_ROWS, :])
    for q, w, m in (g for g in groups if g[0] + g[1] > bits):
        f = amps.itemsize // m.itemsize
        cols = f * min(_CALL_COLUMNS, 1 << (n - w))
        per = 1 << ((chunk >> w).bit_length() - 1)  # amplitudes of a row a piece holds
        hh, cc = (1, per) if per <= 1 << q else (per >> q, 1 << q)
        v, out = amps.view(m.dtype).reshape(-1, 1 << w, f << q), spare.view(m.dtype)
        for h, c in itertools.product(range(0, len(v), hh), range(0, f << q, f * cc)):
            part = v[h : h + hh, :, c : c + f * cc]
            b = part.reshape(len(part), 1 << w, -1, cols).transpose(0, 2, 1, 3)
            prod = out[: part.size].reshape(b.shape)
            for j in range(0, 1 << w, _CALL_ROWS):
                np.matmul(m[j : j + _CALL_ROWS], b, out=prod[..., j : j + _CALL_ROWS, :])
            np.copyto(b, prod)


class _CostPhase:
    """A cost layer's diagonal exp(-i (Theta/2 - C(z))), factored along its
    ``CutDiagonal``: ``eq`` = exp(i Q) over a block's offsets, built once
    as products, and per block the doubling tables of ``block_tables``.
    Read-only once built, so shards can share one."""

    def __init__(self, layer: CostLayer) -> None:
        self.cut = cut = layer.cut()
        b = cut.block_bits
        s = min(_PHASE_SPLIT_BITS, b)
        # Q(m 2^s + r) = Q(r) + Q(m 2^s) - 2 sum_{j: m_j = 1} sum_{i<s} w_{i,s+j} r_i:
        # row m is row 0 times f[j] per set bit j of m, times exp(i Q(m 2^s))
        f = doubling(1.0, np.exp(-2j * cut._w[:s, s:b]), np.multiply, np.complex128).T.copy()
        eq = doubling(np.exp(1j * cut.offset_table(0, s)), f, np.multiply, np.complex128)
        eq[1:] *= np.exp(1j * cut.offset_table(s, b)[1:, None])
        self.eq = eq.reshape(-1)

    def block_tables(self, const: float, linear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) for the block whose ``block_terms`` row is (const, linear):
        A over the offset's low _PHASE_PIECE_BITS bits, starting at
        exp(i (const - Theta/2)), and B over the rest, starting at 1."""
        e = np.exp(1j * np.concatenate(([const - 0.5 * self.cut.total], linear)))
        split = 1 + min(_PHASE_PIECE_BITS, self.cut.block_bits)
        return (
            doubling(e[0], e[1:split], np.multiply, np.complex128),
            doubling(1.0, e[split:], np.multiply, np.complex128),
        )


def _apply_cost_layer(amps: np.ndarray, phase: _CostPhase, offset: int = 0) -> None:
    """Multiply the amplitudes of the indices [offset, offset + amps.shape[-1])
    by a cost layer's diagonal: ``amps`` is one range of 2^k indices at a
    multiple of 2^k (k >= 2, as a layer has two qubits), or a batch of
    them as rows, each row getting the bits it would get alone.

    With s = _PHASE_PIECE_BITS, index z = h * 2^b + l gets
    (A[l mod 2^s] * B[l >> s]) * exp(i Q(l)) from its block's tables, in
    that operand order, over pieces of min(2^k, 2^s) inside one block, so
    its phase does not depend on the range, block, shard or piece
    computing it.  Scratch is the range's ``block_terms`` rows, one piece in
    double precision and one in the state's (no phase product in place).
    """
    b = phase.cut.block_bits
    split = min(_PHASE_PIECE_BITS, b)
    stop = offset + amps.shape[-1]
    size = min(amps.shape[-1], 1 << split)
    first = offset >> b
    wide = np.empty(1 << split, np.complex128)
    rounded = np.empty(wide.size, amps.dtype)
    const, linear = phase.cut.block_terms(np.arange(first, (stop + (1 << b) - 1) >> b, dtype=np.uint64))
    block = None
    for z in range(offset, stop, size):
        if z >> b != block:
            block = z >> b
            low, high = phase.block_tables(const[block - first], linear[block - first])
        l = z & ((1 << b) - 1)
        lo = l & ((1 << split) - 1)
        np.multiply(low[lo : lo + size], high[l >> split], out=wide[:size])
        # rounded to the state's precision as it is stored
        np.multiply(wide[:size], phase.eq[l : l + size], out=rounded[:size], casting="same_kind")
        piece = amps[..., z - offset : z - offset + size]
        np.multiply(piece, rounded[:size], out=piece)


def _folds(runs: list, num_qubits: int) -> bool:
    """Whether ``_layer_plan`` folds the H layer of a circuit's ``layers()``."""
    if len(runs) < 2 or not isinstance(runs[1], CostLayer):
        return False
    return sorted((g.kind, g.qubits[0]) for g in runs[0]) == [("H", q) for q in range(num_qubits)]


def _layer_plan(circuit: CircuitIR, nq_local: int, dtype: np.dtype = np.complex64):
    """The executed layer view: the start amplitude (None when the H layer
    does not fold), the circuit's S-dagger frame and the (step, leg, row)
    of every step in execution order.

    A circuit that opens with exactly one H per qubit, followed by a cost
    layer, starts as ``_plus_amplitude`` in ``dtype`` (which the state is
    filled with), and those gates take no step; any other circuit runs all
    of its layers.  The frame is the mask of the qubits that carry an
    executed RX and no executed H, and every group matrix comes
    ``_framed`` on its bits of it.  A gate run is one ``_GateRun`` step for
    its groups below ``nq_local`` and one for each group (q, w) holding a
    global qubit, applied on the local bits [nq_local - w, nq_local)
    between the legs of its leg (q, w); with ``nq_local`` = n every leg is
    None.  A step's row indexes ``circuit.gates``: the gate whose timing
    row gets its figures, its first, or for a leg its first on a global
    qubit.
    """
    runs = circuit.layers()
    n = circuit.num_qubits
    start, row = None, 0
    if _folds(runs, n):
        start, runs, row = _plus_amplitude(n, dtype), runs[1:], len(runs[0])
    rx, h = ({1 << g.qubits[0] for g in circuit.gates[row:] if g.kind == kind} for kind in ("RX", "H"))
    frame = sum(rx - h)
    steps = []
    for op in runs:
        if isinstance(op, CostLayer):
            steps.append((op, None, row))
            row += len(op.gates)
            continue
        groups = {g: _framed(m, frame >> g[0] & ((1 << g[1]) - 1)) for g, m in _group_matrices(op, n, dtype).items()}
        local = tuple((q, m) for (q, w), m in groups.items() if q + w <= nq_local)
        if local:
            top = max(q + m.shape[0].bit_length() - 1 for q, m in local)
            first = next(j for j, g in enumerate(op) if g.qubits[0] < top)
            steps.append((_GateRun(n, local), None, row + first))
        for (q, w), m in groups.items():
            if q + w > nq_local:
                mine = [j for j, g in enumerate(op) if q <= g.qubits[0] < q + w]
                first = next((j for j in mine if op[j].qubits[0] >= nq_local), mine[0])
                steps.append((_GateRun(n, ((nq_local - w, m),)), (q, w), row + first))
        row += len(op)
    return start, frame, steps


def _cost_layer_bytes(num_qubits: int, precision: Precision) -> tuple[int, int]:
    """(phase, pieces): a ``_CostPhase``'s ``eq`` (complex128, 2^b) and cut
    weights (n x n), plus its build's transient: f and its transposed copy
    (complex128, 2^s per bit above s), the offset tables and their
    exponentials (2^s and 2^(b - s)), a broadcasting multiply's buffer of
    up to ``np.getbufsize()`` elements and the cut's Python objects; one
    ``_apply_cost_layer`` call's pieces, in double and the state's
    precision, its block's table over 2^12 offsets, and the ``block_terms``
    rows of all blocks (a run's slabs together, ``_terms_bytes``)."""
    b = min(_BLOCK_BITS, num_qubits)
    s = min(_PHASE_SPLIT_BITS, b)
    table, low, high = 1 << b, 1 << s, 1 << (b - s)
    build = 32 * (b - s) * low + 40 * low + 24 * high + 16 * min(np.getbufsize(), table) + 4096
    piece = min(table, 1 << _PHASE_PIECE_BITS)
    phase = 16 * table + 8 * num_qubits**2 + build
    return phase, piece * (16 + precision.bytes_per_amplitude + 16) + _terms_bytes(num_qubits)


def _terms_bytes(num_qubits: int) -> int:
    """Bytes of ``block_terms`` over all 2^(n - b) blocks: an index, high
    bits and (b + 1) float64 a block, twice for ``np.where``'s temporaries."""
    b = min(_BLOCK_BITS, num_qubits)
    return (8 + num_qubits - b + 16 * (b + 1)) << (num_qubits - b)


def _piece_bits(num_qubits: int, draws: int) -> int:
    """k of the sampler's pieces of 2^k amplitudes: n - bit_length(4 draws),
    4 to 8 pieces a draw, within [6, 15] (a piece fits half a chunk)."""
    return min(15, max(6, num_qubits - (4 * draws).bit_length()))


def _shot_bytes(num_qubits: int, shots: int) -> int:
    """Bytes ``shots`` draws hold at most: each its uint64 index, the codes
    of ``indices_to_bitstrings`` (n uint64, twice) and the bitstring as
    text (the result's ``str``, a JSON chunk, the joined text and its
    bytes), together under 4 (64 + n) bytes.  The sampler's temporaries
    (38 bytes a draw traced at n = 12 to 20, besides the piece ends the
    tail counts) and the cut evaluation's (57) are gone by then."""
    return shots * (8 + 16 * num_qubits + 4 * (64 + num_qubits))


def _group_bytes(num_qubits: int, precision: Precision) -> int:
    """Bytes of one gate run's group matrices: 2^w x 2^w per group."""
    return sum(precision.bytes_per_amplitude << 2 * w for _, w in _groups(num_qubits))


def _scratch_bytes(
    num_qubits: int, precision: Precision, workers: int = 1, shots: int = 0
) -> tuple[int, int]:
    """(executor, tail): the bytes a run holds besides the state, the gate
    list and the group matrices of all but one gate run, at most, while
    ``workers`` executors run at once and while its tail reads the final
    state and draws ``shots``.  A noiseless run's executors finish before
    its tail starts, so it counts the larger.  Each numpy call may hold
    cast buffers of ``np.getbufsize()`` elements of at most 16 bytes for
    each of up to three operands.

    - Executors, the larger of a gate run: one run's group matrices
      (``_group_bytes``) and per worker ``_apply_gate_run``'s chunk of
      scratch (this also bounds a sharded run's leg, which holds one
      buffer of at most half a chunk per worker) with a change of frame's
      index arrays and unit tables; and a cost layer: its ``_CostPhase``,
      and per worker ``_apply_cost_layer``'s pieces
      (``_cost_layer_bytes``).  Not counted are OpenBLAS's own buffers,
      unseen by tracemalloc: a fresh process's first float32 and float64
      products of the engine's shape grew its resident set by 0.19 and
      0.25 MiB (complex ones by 0.45 and 0.32), at 1 or 2 threads and any
      state size (OpenBLAS 0.3.31, 2-vCPU Xeon host).
    - The tail: the reader's two float64 chunks (``_read``), which also
      hold a chunk's cut values and pass 2's gathered pieces; for a state
      of several chunks, 24 bytes a piece for the sampler's piece ends and
      their temporaries; the draws (``_shot_bytes``); and the instance's
      ``CutDiagonal`` (``WmcInstance.cut``), its table and transient, with
      every block's ``block_terms`` rows (``_terms_bytes``).  Loading a
      solved instance builds that cut (``load_instance`` checks the
      optimum against it), so it is alive during every run as well.  Only
      the tail counts it; the executors hold it within their slack: traced
      from the instance load through the tail, for n = 14 to 20, p = 1 and
      3, at either precision, the peak above the state stayed below 0.92
      of the larger bound.
    """
    block = min(1 << num_qubits, 1 << _GATE_BLOCK_BITS)
    table = 1 << min(_BLOCK_BITS, num_qubits)
    chunk = min(1 << num_qubits, _REDUCTION_CHUNK)
    ends = 24 << (num_qubits - _piece_bits(num_qubits, shots)) if num_qubits > _BLOCK_BITS else 0
    buffers = 3 * 16 * np.getbufsize()
    frame = (24 + 5 * precision.bytes_per_amplitude) << min(_PHASE_PIECE_BITS, num_qubits)  # its arrays, tables
    gate_run = block * precision.bytes_per_amplitude + frame + buffers
    phase, pieces = _cost_layer_bytes(num_qubits, precision)
    executor = max(_group_bytes(num_qubits, precision) + workers * gate_run, phase + workers * (pieces + buffers))
    tail = 2 * 8 * chunk + ends + _terms_bytes(num_qubits) + 3 * 8 * table + buffers
    return executor, tail + _shot_bytes(num_qubits, shots)


def _gate_list_bytes(gates: int) -> int:
    """Bytes a circuit of ``gates`` gates holds while it runs, with its
    schedule and layer views: 320 a gate, above the 276 traced at n = 2,
    where each layer's own objects weigh most (CPython 3.11)."""
    return 320 * gates


class _Counts(NamedTuple):
    """What a run's memory need takes from its circuit: qubits, gates,
    executed gate runs (a folded H layer not counted), cost layers and the
    most RZZ gates in one."""

    num_qubits: int
    gates: int
    gate_runs: int
    cost_layers: int
    widest: int

    @classmethod
    def of(cls, circuit: CircuitIR) -> "_Counts":
        """A circuit's counts, read off its layers, nothing built."""
        runs = circuit.layers()
        costs = [len(op.gates) for op in runs if isinstance(op, CostLayer)]
        gate_runs = len(runs) - len(costs) - _folds(runs, circuit.num_qubits)
        return cls(circuit.num_qubits, len(circuit.gates), gate_runs, len(costs), max(costs, default=0))

    @classmethod
    def lrqaoa(cls, num_qubits: int, p: int) -> "_Counts":
        """``build_circuit``'s at depth p on an instance, a complete graph."""
        _check_vertex_count(num_qubits)
        return cls(num_qubits, sum(gate_counts(num_qubits, p)), p, p, num_qubits * (num_qubits - 1) // 2)


def _run_bytes(counts: _Counts, precision: Precision, workers: int = 1, shots: int = 0) -> int:
    """The bytes a run on ``workers`` slabs drawing ``shots`` needs: the
    state, the gate list, the larger of ``_scratch_bytes``, and the group
    matrices of every gate run but the one the executor bound holds."""
    n = counts.num_qubits
    scratch = max(_scratch_bytes(n, precision, workers, shots))
    matrices = max(0, counts.gate_runs - 1) * _group_bytes(n, precision)
    return state_bytes(n, precision) + _gate_list_bytes(counts.gates) + matrices + scratch


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _swap_fields(amps: np.ndarray, leg: tuple[int, int], nq_local: int, back: bool, share=0, shares=1) -> float:
    """One leg of group (q, w) = ``leg``: the outward leg swaps the bits
    [lo, q'), lo = nq_local - w, q' = min(q, nq_local), with the group's w
    bits, which lie mid = q - q' bits above them; ``back`` swaps them home.
    Runs of 2^lo amplitudes move through one buffer of at most 2^14
    amplitudes, this task taking pieces share, share + shares, ...
    Returns the seconds taken."""
    t0 = time.perf_counter()
    q, w = leg
    lo = nq_local - w
    x, y, mid = min(q, nq_local) - lo, w, q - min(q, nq_local)
    if back:
        x, y = y, x
    src = amps.reshape(-1, 1 << y, 1 << mid, 1 << x, 1 << lo)
    dst = amps.reshape(-1, 1 << x, 1 << mid, 1 << y, 1 << lo)
    room = _GATE_BLOCK_BITS - 1 - x - y
    dl, dm = min(lo, room), min(mid, max(0, room - lo))
    dh = max(0, room - lo - mid)
    ms, ls = 1 << (mid - dm), 1 << (lo - dl)
    buf = np.empty((min(len(src), 1 << dh), 1 << y, 1 << dm, 1 << x, 1 << dl), amps.dtype)
    for k in range(share, -(-len(src) >> dh) * ms * ls, shares):
        h, m, l = (k // (ms * ls)) << dh, (k // ls % ms) << dm, (k % ls) << dl
        np.copyto(buf, src[h : h + (1 << dh), :, m : m + (1 << dm), :, l : l + (1 << dl)])
        np.copyto(dst[h : h + (1 << dh), :, m : m + (1 << dm), :, l : l + (1 << dl)], buf.transpose(0, 3, 2, 1, 4))
    return time.perf_counter() - t0


def _moved(leg: tuple[int, int], nq_local: int, size: int) -> int:
    """The amplitudes of ``size`` an outward leg of group (q, w) moves to
    another shard: (1 - 2^-j), the group holding j global qubits."""
    q, w = leg
    return size - (size >> min(w, q + w - nq_local))


def _run_steps(
    circuit: CircuitIR,
    nq_local: int,
    precision: Precision | str,
    memory_budget: int | None,
    shots: int,
    workers: int = 1,
) -> tuple[StateVector, float, list[tuple[int, float, float, int]]]:
    """Evolve |0...0> through ``_layer_plan(circuit, nq_local)`` on
    ``workers`` slabs, the qubits from ``nq_local`` up global, once
    ``_run_bytes`` with ``shots`` draws fits the budget.

    Returns the state, the seconds from its allocation to the end of the
    last step, and per step its row (see ``_layer_plan``), compute and
    exchange seconds and the amplitudes it exchanged.
    """
    precision = Precision.coerce(precision)
    n = circuit.num_qubits
    check_memory(_run_bytes(_Counts.of(circuit), precision, workers, shots), memory_budget, f"a run of {n} qubits")
    start, frame, steps = _layer_plan(circuit, nq_local, precision.dtype)
    sv = zero_state(n, precision, memory_budget)
    size = sv.amps.size
    timed = []

    wall0 = time.perf_counter()
    if start is not None:  # into the frame; the fill is real, so entering after a cost layer (noise) gives these bits
        _change_frame(sv.amps, 0, frame, fill=start)
    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:

        def each(fn, items) -> list:
            # map's return is the barrier: no task waits on another
            try:
                return list((map if pool is None else pool.map)(fn, items))
            except Exception as exc:
                raise AbortedRunError(f"step task failed: {exc}") from exc

        def swap(leg, back: bool) -> float:
            # a strided share of the leg's pieces per worker: the slowest's seconds
            return max(each(lambda w: _swap_fields(sv.amps, leg, nq_local, back, w, workers), range(workers)))

        def compute(op) -> float:
            """Run a step on every slab: the slowest slab's seconds.  A cost
            layer's tables are built when the layer is due, timed with it,
            and dropped on return, so one layer's are alive at a time.  A
            gate run's slabs hold one call's columns of its widest group."""
            t0 = time.perf_counter()
            if isinstance(op, CostLayer):
                phase, slab = _CostPhase(op), size // workers
                task = lambda lo: _apply_cost_layer(sv.amps[lo : lo + slab], phase, lo)
            else:
                slab = size // min(workers, size // min(size, max(len(m) for _, m in op.products) * _CALL_COLUMNS))
                task = lambda lo: _apply_gate_run(sv.amps[lo : lo + slab], op)
            built = time.perf_counter() - t0
            return built + max(each(lambda lo: _timed(task, lo), range(0, size, slab)))

        for op, leg, row in steps:
            out = swap(leg, False) if leg else 0.0
            compute_s = compute(op)
            back = swap(leg, True) if leg else 0.0  # moves the same amplitudes home, uncounted
            timed.append((row, compute_s, out + back, _moved(leg, nq_local, size) if leg else 0))
        if frame:  # the state leaves the frame by global index, a slab per worker, on the last step's row
            task = lambda lo: _timed(_change_frame, sv.amps[lo : lo + size // workers], frame, 0, lo)
            row, compute_s, *rest = timed[-1]
            timed[-1] = (row, compute_s + max(each(task, range(0, size, size // workers))), *rest)
    return sv, time.perf_counter() - wall0, timed


def run_circuit(
    circuit: CircuitIR,
    precision: Precision | str = Precision.FP32,
    memory_budget: int | None = None,
    shots: int = 0,
) -> StateVector:
    """Evolve |0...0> through the circuit's layers (the IR includes its H
    layer, which ``_layer_plan`` folds into the start state): ``_run_steps``
    with every qubit local, on one worker, the calling thread.  The budget
    covers ``_run_bytes`` with ``shots`` draws the caller takes from the
    result or holds beside it."""
    return _run_steps(circuit, circuit.num_qubits, precision, memory_budget, shots)[0]


# ---------------------------------------------------------------------------
# observables and sampling


def expected_r_from_probs(probs: np.ndarray, inst: WmcInstance) -> float:
    """Expected approximation ratio of an explicit basis-state distribution:
    per block of cut values, an elementwise product and numpy's pairwise
    sum, not a BLAS dot, added in order."""
    if probs.size != 1 << inst.num_vertices:
        raise ValidationError(
            f"distribution over {probs.size} states does not match n={inst.num_vertices}"
        )
    opt, total, step = _require_optimal(inst), 0.0, _REDUCTION_CHUNK
    for lo, weighted in zip(range(0, probs.size, step), inst.cut.blocks(range(-(-probs.size // step)))):
        weighted *= probs[lo : lo + step]
        total += float(weighted.sum())
    return total / opt.value


def exact_expected_r(sv: StateVector, inst: WmcInstance) -> float:
    """Expected approximation ratio of the full distribution, no sampling:
    ``expected_r_from_probs`` of |amplitude|^2 bit for bit, read chunk by
    chunk off the state (``read_out``)."""
    return read_out(sv, inst=inst)[1]


@dataclass(eq=False)
class ShotSet:
    """Measurement outcomes as basis indices, tagged with their provenance;
    a noisy ensemble's also carry the Paulis each trajectory fired and the
    largest |squared norm - 1| of its trajectories' final states."""

    num_qubits: int
    indices: np.ndarray
    rng_seed: int | None
    source: str
    paulis_fired: np.ndarray | None = None
    norm_drift: float | None = None

    def __len__(self) -> int:
        return int(self.indices.size)

    def bitstrings(self) -> list[str]:
        return indices_to_bitstrings(self.indices, self.num_qubits)


def _read(amps: np.ndarray, u: np.ndarray | None = None, cut=None, norm: bool = True):
    """One read of |amps|^2 (``_squared_chunks``): (the squared norm, as
    numpy's pairwise sum per chunk added in order, or 0.0 without ``norm``;
    sum |amps|^2 C(z) over the cut's values by the same sums, or 0.0; the
    index each uniform of ``u`` draws, in u's shape, or None; the last
    value of the full ``np.cumsum`` of |amps|^2, or None).

    A uniform draws the first index where that cumsum over its last value
    exceeds it.  ``np.cumsum`` adds in order, so pass 1 forms each chunk's
    slice of it in place from the last chunk's end, keeping its value at
    the end of every piece of 2^k amplitudes (``_piece_bits``).  Pass 2
    gathers the pieces hit into row 1, ascending, in batches, and forms
    their cumsums in row 0, each from the previous piece's end: the full
    cumsum's additions.  A state of one chunk is searched in pass 1."""
    buf = np.empty((2, min(amps.size, _REDUCTION_CHUNK)))
    values = None if cut is None else cut.blocks(range(amps.size // buf.shape[1]), buf[1])
    flat = None if u is None else u.reshape(-1)
    if many := flat is not None and amps.size > buf.shape[1]:
        k = _piece_bits(amps.size.bit_length() - 1, flat.size)
        ends = np.empty(amps.size >> k)
    total = weighted = carry = 0.0
    for lo, p in _squared_chunks(amps, buf):
        if norm:
            total += float(p.sum())
        if values is not None:
            w = next(values)  # row 1, free once the squares are added
            w *= p
            weighted += float(w.sum())
        if flat is not None:
            p[0] += carry
            carry = np.cumsum(p, out=p)[-1]
            if many:
                ends[lo >> k : (lo + p.size) >> k] = p[(1 << k) - 1 :: 1 << k]
    if flat is None:
        return total, weighted, None, None
    end = float(carry)
    if end <= 0.0:
        raise ValidationError("statevector has zero norm, nothing to sample")
    if not many:
        p /= end
        return total, weighted, np.searchsorted(p, u, side="right").astype(np.uint64), end
    which = np.searchsorted(ends[:-1] / end, flat, side="right")  # the last end is 1
    hit = np.flatnonzero(np.bincount(which, minlength=ends.size))
    half = buf.shape[1] >> 1  # a batch's amplitudes fill row 1, its squares row 0
    start, batch = np.where(hit > 0, ends[hit - 1], 0.0), np.searchsorted(hit, which) // (half >> k)
    rows, idx = amps.reshape(-1, 1 << k), np.empty(flat.size, np.uint64)
    for b, s in enumerate(range(0, hit.size, half >> k)):
        pieces = hit[s : s + (half >> k)]
        got = buf[1].view(amps.dtype)[: pieces.size << k]
        np.take(rows, pieces, axis=0, out=got.reshape(-1, 1 << k), mode="clip")
        cdf = _squares(got, buf[0, : got.size], buf[0, half : half + got.size]).reshape(-1, 1 << k)
        cdf[:, 0] += start[s : s + pieces.size]
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= end
        mine = batch == b
        at = np.searchsorted(cdf.reshape(-1), flat[mine], side="right")
        idx[mine] = (pieces[at >> k] << k) + (at & ((1 << k) - 1))
    return total, weighted, idx.reshape(u.shape), end


def _draw_streamed(amps: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, float]:
    """``_read`` without a cut or a norm: the index each uniform of ``u``
    draws, in u's shape (a row per trajectory sharing the state, whose
    pieces are formed once), and the cumsum's last value, its norm."""
    _, _, idx, end = _read(amps, u, norm=False)
    return idx, end


def read_out(
    sv: StateVector, n_shots: int = 0, rng_seed: int = 0, inst: WmcInstance | None = None
) -> tuple[ShotSet | None, float | None, float]:
    """(``sample``'s shots, None for none; ``exact_expected_r``, None
    without an instance; ``norm_squared``) of the state, bit for bit, from
    one read (``_read``)."""
    if n_shots < 0:
        raise ValidationError(f"shot count must not be negative, got {n_shots}")
    if inst is not None and inst.num_vertices != sv.num_qubits:
        raise ValidationError(f"instance has {inst.num_vertices} vertices, state has {sv.num_qubits} qubits")
    opt = None if inst is None else _require_optimal(inst).value
    u = derive_rng(rng_seed, "shots", 0).random((1, n_shots)) if n_shots else None
    norm, weighted, idx, _ = _read(sv.amps, u, None if inst is None else inst.cut)
    shots = None if u is None else ShotSet(sv.num_qubits, idx[0], int(rng_seed), "noiseless")
    return shots, None if opt is None else weighted / opt, norm


def sample(sv: StateVector, n_shots: int, rng_seed: int) -> ShotSet:
    """Draw basis states by inverse-CDF over |amplitude|^2 (``_read``, on
    the stream ("shots", 0) derived from ``rng_seed``): same seed, same
    shots, and no vector of the state's length is formed."""
    if n_shots < 1:
        raise ValidationError(f"shot count must be positive, got {n_shots}")
    return read_out(sv, n_shots, rng_seed)[0]


# ---------------------------------------------------------------------------
# binary statevector dump

_MAGIC = b"LQSV"
_HEADER = struct.Struct("<4sBBH")  # magic, format version, float bytes, num_qubits


def save_statevector(sv: StateVector, path: str | Path) -> None:
    """Write little-endian interleaved re/im pairs behind a small header,
    the amplitudes straight from the state (on a little-endian host, with
    no copy)."""
    float_bytes = sv.precision.bytes_per_amplitude // 2
    code = "<c8" if sv.precision is Precision.FP32 else "<c16"
    header = _HEADER.pack(_MAGIC, 1, float_bytes, sv.num_qubits)
    write_output(path, header, np.ascontiguousarray(sv.amps, dtype=code))


def load_statevector(path: str | Path) -> StateVector:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValidationError(f"{path} is not a statevector dump (truncated header)")
        magic, version, float_bytes, num_qubits = _HEADER.unpack(head)
        if magic != _MAGIC or version != 1:
            raise ValidationError(f"{path} is not a statevector dump (bad magic/version)")
        if float_bytes == 4:
            precision = Precision.FP32
        elif float_bytes == 8:
            precision = Precision.FP64
        else:
            raise ValidationError(f"{path} has unsupported float width {float_bytes}")
        code = np.dtype("<c8" if precision is Precision.FP32 else "<c16")
        count = 1 << num_qubits
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload != count * code.itemsize:
            raise ValidationError(
                f"{path} payload has {payload} bytes, expected {count} amplitudes "
                f"of {code.itemsize} bytes"
            )
        amps = np.fromfile(fh, dtype=code, count=count)
    return StateVector(num_qubits, amps.astype(precision.dtype, copy=False))
