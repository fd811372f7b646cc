"""Dense statevector simulation of the circuit's layer view.

Amplitudes live in one flat array indexed by basis state, with qubit k at
bit position k.  Each run of consecutive H/RX gates goes through one
executor, ``_apply_gate_run``.  It takes the run's gates on qubits below
15 block by block, all of them on one 2^15-amplitude block (or the whole
array, when smaller) before the next, so the block stays in cache.  A
gate on the qubit at the block's index bit 0 (qubit k, after k such
gates) is a pass out of place, as in Stockham's autosort FFT (1966): it
reads the pairs of index bit 0 and writes its two outputs as the
contiguous halves of a second buffer, which moves that qubit to the top,
so an ascending run such as the RX mixer hits bit 0 every time.  Any
other gate runs in place through one pair kernel at its current stride,
and one transposed copy restores the block's order at the end.  A gate
on a higher qubit makes one pass over pairs of 2^15-amplitude chunks 2^q
apart.  Scratch is two blocks plus the pair kernel's temporaries, at
most four of one block, and every amplitude gets the same operations as
with the gates applied one by one, so neither the blocking nor the
passes ever change a bit.

A cost layer (a run of RZZ gates, see ``CircuitIR.layers``) is
diagonal, so it runs as one elementwise phase multiply by
exp(-i (Theta/2 - C(z))), with no transcendental per amplitude.
``problem.CutDiagonal`` splits an index z into a block h = z >> b and an
offset l < 2^b (b = min(16, n)) and writes the layer's angle-weighted cut
as C = const(h) + sum of a_i(h) over the set bits of l + Q(l), so the
phase factors as exp(i (const - Theta/2)) * prod exp(i a_i) * exp(i Q(l)).
The table exp(i Q) is built once per layer, as products over the split
l = m 2^s + r, s = min(8, b) (``_CostPhase``): 2^s + 2^(b - s) + s (b - s)
exponentials, not 2^b, and the cut's table Q is never formed.  Each block
takes 1 + b exponentials and two complex doubling tables, A over the low
12 bits of l (starting at exp(i (const - Theta/2))) and B over the rest
(starting at 1).  Index z then gets (A[l & 4095] * B[l >> 12]) * exp(i Q(l))
in double precision, rounded to the state's precision and multiplied in,
over aligned pieces of at most 2^12 amplitudes, each of which reads one
entry of B.  An index's phase is the same three products whatever range,
block, shard or piece computes it, so no full-length diagonal is ever
held and a shard gets the dense bits.

Every circuit opens with an H on each qubit of |0...0>, which leaves
every amplitude equal to x = (...((1 * inv) * inv)...) * inv, n products
with inv = 1/sqrt(2) rounded in the state's precision.  The executed
layer view, ``_layer_plan``, folds that layer: the state starts filled
with x instead of running the H gates, with the same bits.  The circuit
keeps its H gates; only the executed view drops them.  The same view and
executors serve the noisy engine.  Nothing ever renormalizes, so global
phase and accumulated rounding stay visible.

Dense and sharded runs go through one step loop, ``_run_steps``.  Its
top n - nq_local qubits are global: the state splits into shards of
2^nq_local amplitudes, shard s owning the indices whose top bits equal
s, and a dense run is the case nq_local = n, one shard.  A step of the
layer view is a cost layer, a stretch of H and RX gates on local
qubits, or one gate on a global qubit g, which runs as its stand-in on
the top local qubit nq_local - 1.  Every step calls an executor once per
slab, one of ``workers`` contiguous ranges of the state (a power of two
up to the shard count, so a slab is a whole number of shards and splits
evenly on every local bit); a cost layer multiplies each slab's index
range, from its offset, by one read-only ``_CostPhase`` built when the
layer is due.  Both executors give an index the same bits whatever
range computes it, so the slabs never change the state.  Around a
stand-in, a swap leg (``_swap_halves``) pairs shard s (bit g - nq_local
clear) with shard s | 2^(g - nq_local) and trades the upper half of the
first for the lower half of the second, two contiguous runs of half a
shard, which transposes qubit g with the top local qubit; a second leg
swaps back.  A leg is one task per worker over a strided share of the pairs,
copied piece by piece through one buffer of at most 2^14 amplitudes.
With several workers a step maps its tasks on a thread pool of that size
and the map returning is the barrier; with one, the tasks run in order
on the calling thread.  No task waits on another, and the tasks of one
step touch disjoint amplitudes, so results cannot depend on scheduling.
An exception in any task aborts the run (``AbortedRunError``).  The loop
times every step: compute is the slowest slab's span (with the build of
a cost layer's ``_CostPhase``), exchange sums over the legs the slowest
worker's share, and the amplitudes exchanged are the halves the outward
leg copies.

The tail of a run streams over the final state: ``norm_squared``,
``exact_expected_r`` and ``sample`` read |amplitude|^2 in float64 one
2^16-amplitude chunk at a time (``_squared_chunks``), and the sampler
keeps one running total per chunk, so the tail holds
O(2^16 + 2^(n-16)) bytes besides the state and its results are those of
the full probability vector, bit for bit.  The sampler,
``_draw_streamed``, is the package's only one: the noisy engine draws
every trajectory's shots through it too.

Single precision (complex64) is the default and costs 2^(n+3) bytes;
double costs 2^(n+4).  A run over its ``memory_budget`` (by default
``DEFAULT_MEMORY_BUDGET``) raises ``CapacityError`` before its state is
allocated, naming the bytes needed; this module alone bounds a run's
scratch (``_scratch_bytes``), which the noisy engine adds to.
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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .circuit import CircuitIR, CostLayer, GateOp
from .errors import AbortedRunError, CapacityError, ValidationError
from .files import write_output
from .problem import (
    _BLOCK_BITS,
    WmcInstance,
    _require_optimal,
    aligned_pieces,
    doubling,
    indices_to_bitstrings,
)
from .rng import derive_rng

DEFAULT_MEMORY_BUDGET = 4 << 30  # bytes
_REDUCTION_CHUNK = 1 << 16


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


def check_memory(
    num_qubits: int,
    precision: Precision,
    budget: int | None = None,
    arrays: int = 1,
    scratch: int = 0,
) -> None:
    """Refuse a run that holds ``arrays`` state-sized arrays plus ``scratch``
    bytes over the budget, ``DEFAULT_MEMORY_BUDGET`` when it is None."""
    need = arrays * state_bytes(num_qubits, precision) + scratch
    limit = DEFAULT_MEMORY_BUDGET if budget is None else int(budget)
    if need > limit:
        what = "statevector" if arrays == 1 else f"{arrays} state-sized arrays"
        if scratch:
            what += f" and {scratch} bytes of scratch"
        raise CapacityError(
            f"{what} for {num_qubits} qubits at {precision.value} needs "
            f"{need} bytes ({need / (1 << 30):.1f} GiB), budget is {limit} bytes"
        )


@dataclass
class StateVector:
    num_qubits: int
    amps: np.ndarray

    @property
    def precision(self) -> Precision:
        return Precision.FP32 if self.amps.dtype == np.complex64 else Precision.FP64

    def norm_squared(self) -> float:
        """Sum of |amplitude|^2 in double precision: numpy's pairwise sums
        over fixed chunks (``_squared_chunks``), added in order, so no BLAS
        thread count can change the bits."""
        total = 0.0
        for _, p in _squared_chunks(self.amps):
            total += float(p.sum())
        return total

    def norm_tolerance(self) -> float:
        """Allowed drift of the squared norm: ``norm_tolerance`` of the state."""
        return norm_tolerance(self.num_qubits, self.precision)


def norm_tolerance(num_qubits: int, precision: Precision) -> float:
    """Allowed drift of a state's squared norm: 10 * 2^n * machine epsilon."""
    eps = np.finfo(precision.dtype).eps
    return 10.0 * (1 << num_qubits) * float(eps)


def _squared_chunks(amps: np.ndarray, chunks=None):
    """(lo, |amps[lo : lo + _REDUCTION_CHUNK]|^2) in double precision, for
    the chunks numbered in ``chunks`` (all of them by default), in order.

    Every chunk is written into row 0 of one two-row float64 buffer: the
    squared real parts, plus the squared imaginary parts held in row 1,
    elementwise, so its bits do not depend on the chunking.  The view
    yielded is overwritten by the next chunk; a caller may work on it in
    place.  Scratch is the buffer, two chunks.
    """
    buf = np.empty((2, min(amps.size, _REDUCTION_CHUNK)))
    if chunks is None:
        chunks = range(-(-amps.size // _REDUCTION_CHUNK))
    for j in chunks:
        lo = int(j) * _REDUCTION_CHUNK
        part = amps[lo : lo + _REDUCTION_CHUNK]
        p, imag = buf[0, : part.size], buf[1, : part.size]
        np.square(part.real, out=p, dtype=np.float64)
        np.square(part.imag, out=imag, dtype=np.float64)
        p += imag
        yield lo, p


def zero_state(
    num_qubits: int,
    precision: Precision | str = Precision.FP32,
    memory_budget: int | None = None,
    scratch: int = 0,
) -> StateVector:
    """|0...0>, after checking that it and ``scratch`` bytes fit the budget."""
    precision = Precision.coerce(precision)
    if num_qubits < 1:
        raise ValidationError(f"need at least one qubit, got {num_qubits}")
    check_memory(num_qubits, precision, memory_budget, scratch=scratch)
    amps = np.zeros(1 << num_qubits, dtype=precision.dtype)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def _plus_amplitude(num_qubits: int, dtype: np.dtype) -> np.generic:
    """x = (...((1 * inv) * inv)...) * inv, n products with inv = 1/sqrt(2)
    rounded in ``dtype``'s real precision: the H kernel's (a0 + 0) * inv on
    every amplitude, n times over."""
    real = np.finfo(dtype).dtype.type
    inv = real(1.0 / math.sqrt(2.0))
    x = real(1.0)
    for _ in range(num_qubits):
        x = x * inv
    return np.dtype(dtype).type(x)


# ---------------------------------------------------------------------------
# one-qubit gates

# One-qubit gates on qubits below _GATE_BLOCK_BITS run on blocks of
# 2^_GATE_BLOCK_BITS amplitudes, or on the whole array when it is smaller.
_GATE_BLOCK_BITS = 15


def _pair_kernel(a0: np.ndarray, a1: np.ndarray, gate: GateOp) -> None:
    """Apply an H (any other kind is taken as RX) to the amplitude pairs
    (a0[k], a1[k]), gate qubit clear and set, in place.

    Each element gets the same operations in the same operand order
    whatever the views' shapes, so any blocking gives the same bits.
    Temporaries are the size of a0.
    """
    held = a0.copy()
    if gate.kind == "H":
        inv = a0.dtype.type(1.0 / math.sqrt(2.0))
        a0[...] = (held + a1) * inv
        a1[...] = (held - a1) * inv
    else:
        c = a0.dtype.type(math.cos(gate.theta / 2.0))
        s = a0.dtype.type(-1j * math.sin(gate.theta / 2.0))
        a0[...] = c * held + s * a1
        a1[...] = s * held + c * a1


def _pass_lowest(src: np.ndarray, dst: np.ndarray, tmp: np.ndarray, gate: GateOp) -> None:
    """The gate on index bit 0 of ``src``, written to ``dst`` with that bit
    moved to the top: the pair (src[2i], src[2i + 1]) becomes
    (dst[i], dst[h + i]), h = src.size / 2.

    Every amplitude gets ``_pair_kernel``'s operations in its operand
    order, but each numpy call runs over a whole contiguous block or half.
    ``tmp`` is scratch of ``src``'s size, and an RX leaves ``src``
    overwritten.
    """
    h = src.size // 2
    if gate.kind == "H":
        inv = src.dtype.type(1.0 / math.sqrt(2.0))
        np.add(src[0::2], src[1::2], out=tmp[:h])
        np.multiply(tmp[:h], inv, out=dst[:h])
        np.subtract(src[0::2], src[1::2], out=tmp[:h])
        np.multiply(tmp[:h], inv, out=dst[h:])
    else:
        c = src.dtype.type(math.cos(gate.theta / 2.0))
        s = src.dtype.type(-1j * math.sin(gate.theta / 2.0))
        np.multiply(c, src, out=tmp)
        # src is read for the last time by the product above
        np.multiply(s, src, out=src)
        np.add(tmp[0::2], src[1::2], out=dst[:h])
        np.add(src[0::2], tmp[1::2], out=dst[h:])


def _apply_block_gates(block: np.ndarray, gates: list[GateOp], scratch: np.ndarray) -> None:
    """Gates on qubits below _GATE_BLOCK_BITS, in order, on one block.

    With k passes done, index m * 2^k + j (j < 2^k) of the block sits at
    j * (size >> k) + m of the current buffer, so qubit k is its index
    bit 0.  A gate on qubit k is one more pass, into the other buffer; any
    other gate runs in place at its current stride, 2^(q - k) for q > k
    and 2^q * (size >> k) for q < k.  One transposed copy restores the
    order.  The data move between the two rows of ``scratch``; the block
    itself is the first pass's source and every later pass's ``tmp``.
    """
    size, k, cur = block.size, 0, block
    for g in gates:
        q = g.qubits[0]
        if q == k:
            dst = scratch[k % 2]
            _pass_lowest(cur, dst, scratch[1] if k == 0 else block, g)
            cur, k = dst, k + 1
        else:
            stride = 1 << (q - k) if q > k else (1 << q) * (size >> k)
            v = cur.reshape(-1, 2, stride)
            _pair_kernel(v[:, 0], v[:, 1], g)
    if k:
        np.copyto(block.reshape(size >> k, 1 << k), cur.reshape(1 << k, size >> k).T)


def _pairs(amps: np.ndarray, q: int, step: int):
    """(a0, a1) piece by piece, in index order: the amplitudes with qubit q
    clear and set, paired index by index, ``step`` (a power of two) of each
    at most.  Each is one contiguous run when 2^q >= step, else
    ``step >> q`` rows of 2^q."""
    v = amps.reshape(-1, 2, 1 << q)
    if v.shape[2] >= step:
        for r in range(v.shape[0]):
            for c in range(0, v.shape[2], step):
                yield v[r, 0, c : c + step], v[r, 1, c : c + step]
    else:
        rows = step >> q
        for r in range(0, v.shape[0], rows):
            yield v[r : r + rows, 0], v[r : r + rows, 1]


def _apply_gate_run(amps: np.ndarray, gates) -> None:
    """Apply consecutive H/RX gates in order, on the qubits they name.

    Each stretch of gates on qubits below _GATE_BLOCK_BITS runs block by
    block (``_apply_block_gates``), the whole stretch on one block while
    it sits in cache; each gate on a higher qubit makes one pass over
    chunk pairs.  ``amps`` may also be a flat batch of states of 2^n
    amplitudes each, since a block only has to split evenly on the bits
    its passes take.  Scratch is two blocks, allocated once per call, plus
    ``_pair_kernel``'s temporaries, at most four of one block; the bits
    are those of the gates applied one by one.
    """
    for g in gates:
        if g.kind not in ("H", "RX"):
            raise ValidationError(f"{g.kind} runs inside a cost layer, not as a single gate")
    size = min(amps.size, 1 << _GATE_BLOCK_BITS)
    scratch = np.empty((2, size), amps.dtype)
    for low, part in itertools.groupby(gates, key=lambda g: g.qubits[0] < _GATE_BLOCK_BITS):
        if low:
            part = list(part)
            for lo in range(0, amps.size, size):
                _apply_block_gates(amps[lo : lo + size], part, scratch)
        else:
            # a gate on a higher qubit: one pass over pairs of blocks 2^q apart
            for g in part:
                for a0, a1 in _pairs(amps, g.qubits[0], 1 << _GATE_BLOCK_BITS):
                    _pair_kernel(a0, a1, g)


# A cost layer's phases are formed over aligned pieces of at most
# 2^_PHASE_PIECE_BITS amplitudes; a block's doubling tables split its
# offsets at the same bit, so a piece reads one entry of the high table.
_PHASE_PIECE_BITS = 12
_PHASE_SPLIT_BITS = 8  # exp(i Q) is built from tables over l's low 8 bits and the rest


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
        eq = np.empty((1 << (b - s), 1 << s), np.complex128)
        np.exp(1j * cut.offset_table(0, s), out=eq[0])
        for j in range(b - s):
            np.multiply(eq[: 1 << j], f[j], out=eq[1 << j : 2 << j])
        eq[1:] *= np.exp(1j * cut.offset_table(s, b)[1:, None])
        self.eq = eq.reshape(-1)

    def block_tables(self, h: int) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) for block h: A over the offset's low _PHASE_PIECE_BITS
        bits, starting at exp(i (const - Theta/2)), and B over the rest,
        starting at 1."""
        const, linear = self.cut.block_terms(h)
        e = np.exp(1j * np.concatenate(([const - 0.5 * self.cut.total], linear)))
        split = 1 + min(_PHASE_PIECE_BITS, self.cut.block_bits)
        return (
            doubling(e[0], e[1:split], np.multiply, np.complex128),
            doubling(1.0, e[split:], np.multiply, np.complex128),
        )


def _apply_cost_layer(amps: np.ndarray, phase: _CostPhase, offset: int = 0) -> None:
    """Multiply the amplitudes of the indices [offset, offset + amps.shape[-1])
    by a cost layer's diagonal: ``amps`` is one range, or a batch of them
    as rows, each row getting the bits it would get alone.

    With s = _PHASE_PIECE_BITS, index z = h * 2^b + l gets
    (A[l mod 2^s] * B[l >> s]) * exp(i Q(l)) from its block's tables, in
    that operand order, over the pieces of ``aligned_pieces`` of at most
    2^s, so its phase does not depend on the range, block, shard or piece
    computing it.  Scratch is one piece in double precision and one in the
    state's, so no phase product is formed in place.
    """
    b = phase.cut.block_bits
    split = min(_PHASE_PIECE_BITS, b)
    wide = np.empty(1 << split, np.complex128)
    rounded = np.empty(wide.size, amps.dtype)
    block = None
    for z, k in aligned_pieces(offset, offset + amps.shape[-1], split):
        if z >> b != block:
            block = z >> b
            low, high = phase.block_tables(block)
        l, size = z & ((1 << b) - 1), 1 << k
        lo = l & ((1 << split) - 1)
        np.multiply(low[lo : lo + size], high[l >> split], out=wide[:size])
        # rounded to the state's precision as it is stored
        np.multiply(wide[:size], phase.eq[l : l + size], out=rounded[:size], casting="same_kind")
        piece = amps[..., z - offset : z - offset + size]
        # numpy runs a one-element multiply into its own input as a
        # reduction, without the fused multiply-add of its array loop
        np.multiply(piece if size > 1 else piece.copy(), rounded[:size], out=piece)


def _layer_plan(circuit: CircuitIR, nq_local: int, dtype: np.dtype = np.complex64):
    """The executed layer view: the start amplitude (None when the H layer
    does not fold) and the (step, global qubit or None) of every step in
    execution order.

    A circuit that opens with exactly one H per qubit, followed by a cost
    layer, starts as ``_plus_amplitude`` in ``dtype`` (the amplitude those
    gates leave everywhere on |0...0>, which the state starts filled
    with), and those gates take no step; any other circuit runs all of
    its layers.  A step is a cost layer, or a tuple of H/RX gates every
    slab runs with ``_apply_gate_run``: a stretch of consecutive gates on
    qubits below ``nq_local``, or one gate on a global qubit as its
    stand-in on the top local qubit, which the swap legs trade with the
    global qubit and back.  With ``nq_local`` = n the steps are
    ``CircuitIR.layers`` after the folded H layer.
    """
    runs = circuit.layers()
    n = circuit.num_qubits
    start = None
    if (
        len(runs) > 1
        and isinstance(runs[1], CostLayer)
        and sorted((g.kind, g.qubits[0]) for g in runs[0]) == [("H", q) for q in range(n)]
    ):
        start, runs = _plus_amplitude(n, dtype), runs[1:]
    steps = []
    for op in runs:
        if isinstance(op, CostLayer):
            steps.append((op, None))
            continue
        for local, gates in itertools.groupby(op, key=lambda g: g.qubits[0] < nq_local):
            if local:
                steps.append((tuple(gates), None))
            else:
                steps.extend(((replace(g, qubits=(nq_local - 1,)),), g.qubits[0]) for g in gates)
    return start, steps


def _cost_layer_bytes(num_qubits: int, precision: Precision) -> tuple[int, int]:
    """(phase, pieces): a ``_CostPhase``'s ``eq`` (complex128, 2^b) and cut
    weights (n x n), plus its build's transient: f and its transposed copy
    (complex128, 2^s per bit above s), the offset tables and their
    exponentials (2^s and 2^(b - s)), a broadcasting multiply's buffer of
    up to ``np.getbufsize()`` elements and the cut's Python objects; one
    ``_apply_cost_layer`` call's pieces, in double and the state's
    precision, and its block's table over 2^12 offsets."""
    b = min(_BLOCK_BITS, num_qubits)
    s = min(_PHASE_SPLIT_BITS, b)
    table, low, high = 1 << b, 1 << s, 1 << (b - s)
    build = 32 * (b - s) * low + 40 * low + 24 * high + 16 * min(np.getbufsize(), table) + 4096
    piece = min(table, 1 << _PHASE_PIECE_BITS)
    phase = 16 * table + 8 * num_qubits**2 + build
    return phase, piece * (16 + precision.bytes_per_amplitude + 16)


def _shot_bytes(num_qubits: int, shots: int) -> int:
    """Bytes ``shots`` draws hold at most: each its uint64 index, the codes
    of ``indices_to_bitstrings`` (n uint64, twice) and the bitstring as
    text (the result's ``str``, a JSON chunk, the joined text and its
    bytes), together under 4 (64 + n) bytes.  The sampler's and the cut
    evaluation's temporaries, under 100 bytes a draw, are gone by then."""
    return shots * (8 + 16 * num_qubits + 4 * (64 + num_qubits))


def _scratch_bytes(
    num_qubits: int, precision: Precision, workers: int = 1, shots: int = 0
) -> tuple[int, int]:
    """(executor, tail): the bytes a run holds besides the state and the
    gate list, at most, while ``workers`` executors run at once and while
    its tail reads the final state and draws ``shots``.  A noiseless run's
    executors finish before its tail starts, so it counts the larger.
    Each numpy call may hold cast buffers of ``np.getbufsize()`` elements
    of at most 16 bytes for each of up to three operands.

    - Executors, the larger of a one-qubit gate run, per worker
      (``_apply_gate_run``'s two blocks and ``_pair_kernel``'s
      temporaries, at most four of one block; this also bounds a sharded
      run's swap leg, which holds one buffer of at most half a block per
      pair), and a cost layer: its ``_CostPhase``, and per worker
      ``_apply_cost_layer``'s pieces (``_cost_layer_bytes``).
    - The tail: the reader's two float64 chunks (``_squared_chunks``),
      the sampler's two running totals per chunk, the draws
      (``_shot_bytes``), and the instance's ``CutDiagonal``
      (``WmcInstance.cut``), its table and transient, with one chunk of
      cut values.  Loading a solved instance builds that cut
      (``load_instance`` checks the optimum against it), so it is alive
      during every run as well.  Only the tail counts it; the executors
      hold it within their slack: traced from the instance load through
      the tail, for n = 14 to 20, p = 1 and 3, at either precision, the
      peak above the state stayed below 0.92 of the larger bound.
    """
    block = min(1 << num_qubits, 1 << _GATE_BLOCK_BITS)
    table = 1 << min(_BLOCK_BITS, num_qubits)
    chunk = min(1 << num_qubits, _REDUCTION_CHUNK)
    chunks = -(-(1 << num_qubits) // _REDUCTION_CHUNK)
    buffers = 3 * 16 * np.getbufsize()
    gate_run = 6 * block * precision.bytes_per_amplitude + buffers
    phase, pieces = _cost_layer_bytes(num_qubits, precision)
    executor = max(workers * gate_run, phase + workers * (pieces + buffers))
    tail = 2 * 8 * chunk + 2 * 8 * chunks + 3 * 8 * table + 8 * chunk + buffers
    return executor, tail + _shot_bytes(num_qubits, shots)


def _gate_list_bytes(gates: int) -> int:
    """Bytes a circuit of ``gates`` gates holds while it runs, with its
    schedule and layer views: 320 a gate, above the 276 traced at n = 2,
    where each layer's own objects weigh most (CPython 3.11)."""
    return 320 * gates


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _swap_halves(rows: np.ndarray, lows: list[int], bit: int) -> tuple[float, int]:
    """Trade the upper half of each shard s in ``lows`` for the lower half of
    shard s | bit, which transposes the pair's global qubit with the top
    local qubit (a swap is its own inverse), piece by piece through one
    buffer of at most 2^(_GATE_BLOCK_BITS - 1) amplitudes.  Returns the
    seconds taken and the amplitudes that changed shards."""
    t0 = time.perf_counter()
    h = rows.shape[1] // 2
    held = np.empty(min(h, 1 << (_GATE_BLOCK_BITS - 1)), rows.dtype)
    for s in lows:
        mine, theirs = rows[s, h:], rows[s | bit, :h]
        for lo in range(0, h, held.size):
            part = slice(lo, lo + held.size)
            held[...] = mine[part]
            mine[part] = theirs[part]
            theirs[part] = held
    return time.perf_counter() - t0, 2 * h * len(lows)


def _run_steps(
    circuit: CircuitIR,
    nq_local: int,
    precision: Precision | str,
    memory_budget: int | None,
    shots: int,
    workers: int = 1,
) -> tuple[StateVector, float, list[tuple[int, float, float, int]]]:
    """Evolve |0...0> through ``_layer_plan(circuit, nq_local)`` on
    ``workers`` slabs, the qubits from ``nq_local`` up global.  The budget
    covers the state, the gate list and ``_scratch_bytes``, with ``shots``
    draws the caller takes from the result or holds beside it.

    Returns the state, the seconds from its allocation to the end of the
    last step, and per step its gate count, compute and exchange seconds
    and the amplitudes it exchanged.
    """
    precision = Precision.coerce(precision)
    n = circuit.num_qubits
    start, steps = _layer_plan(circuit, nq_local, precision.dtype)
    scratch = max(_scratch_bytes(n, precision, workers, shots)) + _gate_list_bytes(len(circuit.gates))
    sv = zero_state(n, precision, memory_budget, scratch)
    rows = sv.amps.reshape(-1, 1 << nq_local)
    slab = sv.amps.size // workers
    slabs = range(0, sv.amps.size, slab)
    timed = []

    wall0 = time.perf_counter()
    if start is not None:
        sv.amps.fill(start)
    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:

        def each(fn, items) -> list:
            # map's return is the barrier: no task waits on another
            try:
                return list((map if pool is None else pool.map)(fn, items))
            except Exception as exc:
                raise AbortedRunError(f"step task failed: {exc}") from exc

        def swap(g: int) -> tuple[float, int]:
            """One leg over the pairs of shards that differ in global qubit g, a
            strided share per worker: the slowest worker's seconds, amplitudes moved."""
            bit = 1 << (g - nq_local)
            lows = [s for s in range(rows.shape[0]) if not s & bit]
            legs = each(lambda w: _swap_halves(rows, lows[w::workers], bit), range(workers))
            return max(t for t, _ in legs), sum(m for _, m in legs)

        def compute(op) -> float:
            """Run a step on every slab: the slowest slab's seconds.  A cost
            layer's tables are built when the layer is due, timed with it,
            and dropped on return, so one layer's are alive at a time."""
            if isinstance(op, CostLayer):
                t0 = time.perf_counter()
                phase = _CostPhase(op)
                built = time.perf_counter() - t0
                return built + max(each(lambda lo: _timed(_apply_cost_layer, sv.amps[lo : lo + slab], phase, lo), slabs))
            return max(each(lambda lo: _timed(_apply_gate_run, sv.amps[lo : lo + slab], op), slabs))

        for op, qubit in steps:
            exchange_s, moved = (0.0, 0) if qubit is None else swap(qubit)
            compute_s = compute(op)
            if qubit is not None:
                # the restore leg moves the same amplitudes home and is not counted
                exchange_s += swap(qubit)[0]
            size = len(op.gates) if isinstance(op, CostLayer) else len(op)
            timed.append((size, compute_s, exchange_s, moved))
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
    covers the state, the gate list and ``_scratch_bytes``, with ``shots``
    draws the caller takes from the result or holds beside it."""
    return _run_steps(circuit, circuit.num_qubits, precision, memory_budget, shots)[0]


# ---------------------------------------------------------------------------
# observables and sampling


def _expected_r(chunks, inst: WmcInstance) -> float:
    """Expected approximation ratio from (lo, probabilities of the indices
    lo, lo + 1, ...) chunks: an elementwise product with the cut values and
    numpy's pairwise sum per chunk, not a BLAS dot, added in order."""
    opt = _require_optimal(inst)
    total = 0.0
    for lo, p in chunks:
        weighted = inst.cut.values(lo, lo + p.size)
        weighted *= p
        total += float(weighted.sum())
        del weighted  # dropped before the next chunk's values are formed
    return total / opt.value


def expected_r_from_probs(probs: np.ndarray, inst: WmcInstance) -> float:
    """Expected approximation ratio of an explicit basis-state distribution."""
    if probs.size != 1 << inst.num_vertices:
        raise ValidationError(
            f"distribution over {probs.size} states does not match n={inst.num_vertices}"
        )
    step = _REDUCTION_CHUNK
    return _expected_r(((lo, probs[lo : lo + step]) for lo in range(0, probs.size, step)), inst)


def exact_expected_r(sv: StateVector, inst: WmcInstance) -> float:
    """Expected approximation ratio of the full distribution, no sampling:
    ``expected_r_from_probs`` of |amplitude|^2 bit for bit, read chunk by
    chunk off the state."""
    if inst.num_vertices != sv.num_qubits:
        raise ValidationError(
            f"instance has {inst.num_vertices} vertices, state has {sv.num_qubits} qubits"
        )
    return _expected_r(_squared_chunks(sv.amps), inst)


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


def _draw_streamed(amps: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse-CDF draws over |amps|^2: the basis index each uniform of
    ``u`` in [0, 1) draws, in an array of ``u``'s shape (a row of uniforms
    per trajectory), and the state's squared norm, with no full-length
    vector.

    Each u gets the first index where the full ``np.cumsum`` of |amps|^2,
    divided by its last value (the norm, in double precision, so
    single-precision drift does not bias the draw), exceeds u; the last
    value divided by itself is 1, so there is one.  ``np.cumsum`` adds in
    order, so chunk j's slice of the full cumsum is the cumsum of its
    probabilities with the running total up to the chunk added into its
    first one.  Pass 1 keeps only each chunk's last value, the running
    totals, whose last is the norm; divided by it they are the normalized
    CDF at the chunks' ends.  A uniform goes to the first chunk whose end
    exceeds it, and pass 2 searches it inside that chunk's slice: the last
    chunk's is still in pass 1's buffer, and every other chunk hit is
    rebuilt.  The running totals are formed once however many trajectories
    share the state, and a state of one chunk is read once, with no
    search over chunk ends.
    """
    totals = np.empty(-(-amps.size // _REDUCTION_CHUNK))
    carry = 0.0
    for j, (lo, p) in enumerate(_squared_chunks(amps)):
        p[0] += carry
        carry = totals[j] = np.cumsum(p, out=p)[-1]
    total = float(carry)
    if total <= 0.0:
        raise ValidationError("statevector has zero norm, nothing to sample")
    flat = u.reshape(-1)
    last = totals.size - 1
    hit, which = [last], None
    if last:
        # the last end is total / total = 1, beyond every u, so it needs no search
        which = np.searchsorted(totals[:last] / total, flat, side="right")
        hit = np.flatnonzero(np.bincount(which, minlength=totals.size)).tolist()
    one = len(hit) == 1  # every uniform falls in one chunk
    idx = np.empty(flat.size, np.uint64)

    def search(lo: int, p: np.ndarray) -> None:
        """The uniforms of the chunk at ``lo`` in its slice of the normalized CDF."""
        p /= total
        shots = slice(None) if one else which == lo // _REDUCTION_CHUNK
        idx[shots] = lo + np.searchsorted(p, flat[shots], side="right")

    if hit[-1] == last:
        search(lo, p)
        hit.pop()
    del p  # pass 1's buffer goes before pass 2's is allocated
    if hit:
        for lo, p in _squared_chunks(amps, hit):
            if lo:
                p[0] += totals[lo // _REDUCTION_CHUNK - 1]
            np.cumsum(p, out=p)
            search(lo, p)
    return idx.reshape(u.shape), total


def sample(sv: StateVector, n_shots: int, rng_seed: int) -> ShotSet:
    """Draw basis states by inverse-CDF over |amplitude|^2 (``_draw_streamed``,
    on the stream ("shots", 0) derived from ``rng_seed``): same seed, same
    shots, and no vector of the state's length is formed.
    """
    if n_shots < 1:
        raise ValidationError(f"shot count must be positive, got {n_shots}")
    (idx,), _ = _draw_streamed(sv.amps, derive_rng(rng_seed, "shots", 0).random((1, n_shots)))
    return ShotSet(sv.num_qubits, idx, int(rng_seed), "noiseless")


# ---------------------------------------------------------------------------
# binary statevector dump

_MAGIC = b"LQSV"
_HEADER = struct.Struct("<4sBBH")  # magic, format version, float bytes, num_qubits


def save_statevector(sv: StateVector, path: str | Path) -> None:
    """Write little-endian interleaved re/im pairs behind a small header."""
    float_bytes = sv.precision.bytes_per_amplitude // 2
    code = "<c8" if sv.precision is Precision.FP32 else "<c16"
    # one buffer holds header and payload, so the state is copied once
    data = bytearray(_HEADER.size + sv.amps.nbytes)
    _HEADER.pack_into(data, 0, _MAGIC, 1, float_bytes, sv.num_qubits)
    np.frombuffer(data, dtype=code, offset=_HEADER.size)[...] = sv.amps
    write_output(path, data)


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
