"""Sharded statevector execution with explicit exchange accounting.

The amplitude array splits into 2^(nq - nq_local) contiguous shards of
2^nq_local amplitudes; shard s owns the basis states whose top bits equal
s.  Shards shape only the exchange.  All of them are rows of one state
array, and the circuit's layer view (``CircuitIR.layers``) is computed on
``workers`` contiguous slabs of it, the largest power of two up to both
the shard count and the CPUs the process may use, so a slab is a whole
number of shards and splits evenly on every local bit.

The leading H layer is folded as in the dense engine: every amplitude
starts as the one those gates leave, so they neither compute nor
exchange, and ``exchange_volume`` reads the same folded layer view.
Every other step calls a dense executor once per slab: a cost layer (a
run of RZZ gates, diagonal, so it never exchanges) multiplies the slab's
index range, from its offset, by one read-only ``_CostPhase`` built when
the layer is due; a stretch of H and RX gates on local qubits is one
one-qubit executor call.  Both executors give an index the same bits
whatever range computes it, so the state is the dense engine's.

A gate on a global qubit g runs as its stand-in on the top local qubit
nq_local - 1.  A swap leg pairs shard s (bit g - nq_local clear) with
shard s | 2^(g - nq_local) and trades the upper half of the first with
the lower half of the second, two contiguous runs of L/2 amplitudes,
which transposes qubit g with the top local qubit; the stand-in runs on
every slab, and a second leg swaps back.  A leg is one task per worker
over a strided share of the pairs, copied piece by piece through one
buffer of at most 2^14 amplitudes.  One swap-apply-restore counts as a
single exchange of L/2 amplitudes per shard (the restore leg moves the
same amplitudes home), the convention on which the static
``exchange_volume`` and the counters measured during a run agree.

With several workers a step maps its tasks on a thread pool of that size
and the map returning is the barrier; with one, the tasks run in order
on the calling thread, so a 1-shard plan makes ``run_circuit``'s
executor calls.  No task waits on another, and tasks of one step touch
disjoint amplitudes, so results cannot depend on scheduling.  The timing
record keeps one row per gate: compute is the slowest slab's span,
exchange sums over the swap legs the slowest worker's share, and the
amplitudes exchanged are counted from the halves the outward legs copy.
The compute time of a cost layer (building its ``_CostPhase`` and the
slowest slab's multiply), or of a stretch of local H and RX gates, goes
on the row of its first gate; its other rows carry zeros, as
do the folded H gates.  An exception in any task aborts the run.  The
memory budget covers the state and each worker's executor scratch
(``engine._run_scratch_bytes``), which also bounds a leg's buffer.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import IO, Iterable

import numpy as np

from .circuit import CircuitIR, CostLayer, LrQaoaParams, build_circuit
from .engine import (
    _GATE_BLOCK_BITS,
    Precision,
    StateVector,
    _apply_cost_layer,
    _apply_gate_run,
    _CostPhase,
    _fold_h,
    _run_scratch_bytes,
    zero_state,
)
from .errors import AbortedRunError, ValidationError
from .problem import generate_instance


@dataclass(frozen=True)
class ShardPlan:
    nq: int
    nq_local: int

    @property
    def num_shards(self) -> int:
        return 1 << (self.nq - self.nq_local)

    @property
    def shard_len(self) -> int:
        return 1 << self.nq_local


def plan_shards(nq: int, nq_local: int) -> ShardPlan:
    """Split nq qubits into 2^(nq - nq_local) shards of 2^nq_local amplitudes."""
    if nq < 1:
        raise ValidationError(f"need at least one qubit, got {nq}")
    if not 1 <= nq_local <= nq:
        raise ValidationError(
            f"nq_local must satisfy 1 <= nq_local <= nq, got {nq_local} for nq={nq}"
        )
    return ShardPlan(nq, nq_local)


def plan_for_shard_count(nq: int, num_shards: int) -> ShardPlan:
    if num_shards < 1 or num_shards & (num_shards - 1):
        raise ValidationError(f"shard count must be a power of two, got {num_shards}")
    log2 = num_shards.bit_length() - 1
    if log2 >= nq:
        raise ValidationError(f"{num_shards} shards need more than {nq} qubits")
    return plan_shards(nq, nq - log2)


def exchange_volume(circuit: CircuitIR, plan: ShardPlan) -> int:
    """Total amplitudes redistributed over the run (static analysis of the
    steps the engine executes): half of every shard per gate on a global
    qubit.

    Only the gates outside cost layers count; diagonal layers never
    exchange, and neither does a folded H layer, which never runs.
    """
    _, layers = _layer_plan(circuit, plan)
    moves = sum(qubit is not None for _, qubit in layers)
    return moves * plan.num_shards * (plan.shard_len // 2)


# ---------------------------------------------------------------------------
# timing


@dataclass(frozen=True)
class GateTiming:
    gate_index: int
    kind: str
    compute_s: float
    exchange_s: float
    amps_exchanged: int


@dataclass
class TimingRecord:
    nq: int
    p: int
    num_shards: int
    wall_seconds: float
    gates: list[GateTiming] = field(default_factory=list)

    @property
    def compute_seconds(self) -> float:
        return sum(g.compute_s for g in self.gates)

    @property
    def exchange_seconds(self) -> float:
        return sum(g.exchange_s for g in self.gates)

    @property
    def amps_exchanged(self) -> int:
        return sum(g.amps_exchanged for g in self.gates)


TIMING_CSV_FIELDS = (
    "nq",
    "p",
    "num_shards",
    "gate_index",
    "kind",
    "compute_s",
    "exchange_s",
    "amps_exchanged",
)


def write_timing_csv(records: Iterable[TimingRecord], fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(TIMING_CSV_FIELDS)
    for rec in records:
        for g in rec.gates:
            writer.writerow(
                [
                    rec.nq,
                    rec.p,
                    rec.num_shards,
                    g.gate_index,
                    g.kind,
                    f"{g.compute_s:.9f}",
                    f"{g.exchange_s:.9f}",
                    g.amps_exchanged,
                ]
            )


# ---------------------------------------------------------------------------
# execution


def _layer_plan(circuit: CircuitIR, plan: ShardPlan, dtype: np.dtype = np.complex64):
    """The folded start amplitude (None when the H layer does not fold, see
    ``engine._fold_h``) and the (step, global qubit or None) of every step
    in execution order.

    A step is a cost layer, or a tuple of H/RX gates every slab runs with
    ``_apply_gate_run``: a stretch of consecutive gates on local qubits,
    or one gate on a global qubit as its stand-in on the top local qubit,
    which the swap legs trade with the global qubit and back.  Folded H
    gates take no step.
    """
    start, runs = _fold_h(circuit, dtype)
    out = []
    for op in runs:
        if isinstance(op, CostLayer):
            out.append((op, None))
            continue
        for local, gates in itertools.groupby(op, key=lambda g: g.qubits[0] < plan.nq_local):
            if local:
                out.append((tuple(gates), None))
            else:
                out.extend(((replace(g, qubits=(plan.nq_local - 1,)),), g.qubits[0]) for g in gates)
    return start, out


def _workers(plan: ShardPlan) -> int:
    """The slabs a run computes on: the largest power of two up to both the
    shard count and the CPUs the process may use (its affinity set, where
    the platform has one)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return 1 << (min(plan.num_shards, cpus).bit_length() - 1)


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


def run_circuit_sharded(
    circuit: CircuitIR,
    plan: ShardPlan,
    precision: Precision | str = Precision.FP32,
    memory_budget: int | None = None,
) -> tuple[StateVector, TimingRecord]:
    """Run the gate list across shards; returns the full state plus timings.

    A single-shard plan makes the dense engine's executor calls, in its
    order, on the calling thread: bit-identical amplitudes.
    """
    precision = Precision.coerce(precision)
    if circuit.num_qubits != plan.nq:
        raise ValidationError(
            f"circuit has {circuit.num_qubits} qubits but plan covers {plan.nq}"
        )
    start, layers = _layer_plan(circuit, plan, precision.dtype)
    workers = _workers(plan)
    scratch = _run_scratch_bytes(plan.nq, precision, workers)
    sv = zero_state(plan.nq, precision, memory_budget, scratch)
    rows = sv.amps.reshape(plan.num_shards, plan.shard_len)
    slab = sv.amps.size // workers
    slabs = range(0, sv.amps.size, slab)
    gate_rows: list[GateTiming] = []

    wall0 = time.perf_counter()
    if start is not None:
        # the folded H layer: rows start as its amplitude, and its gates
        # keep their timing rows with nothing computed or exchanged
        sv.amps.fill(start)
        gate_rows.extend(GateTiming(q, "H", 0.0, 0.0, 0) for q in range(plan.nq))
    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:

        def each(fn, items) -> list:
            # map's return is the barrier: no task waits on another
            try:
                return list((map if pool is None else pool.map)(fn, items))
            except Exception as exc:
                raise AbortedRunError(f"shard task failed: {exc}") from exc

        def swap(g: int) -> tuple[float, int]:
            """One leg over the pairs of shards that differ in global qubit g, a
            strided share per worker: the slowest worker's seconds, amplitudes moved."""
            bit = 1 << (g - plan.nq_local)
            lows = [s for s in range(plan.num_shards) if not s & bit]
            legs = each(lambda w: _swap_halves(rows, lows[w::workers], bit), range(workers))
            return max(t for t, _ in legs), sum(m for _, m in legs)

        def compute(op) -> float:
            """Run a step on every slab: the slowest slab's seconds.  A cost
            layer's tables are built here when the layer is due, timed with
            it, and dropped on return, so one layer's are alive at a time."""
            if isinstance(op, CostLayer):
                t0 = time.perf_counter()
                phase = _CostPhase(op)
                built = time.perf_counter() - t0
                return built + max(each(lambda lo: _timed(_apply_cost_layer, sv.amps[lo : lo + slab], phase, lo), slabs))
            return max(each(lambda lo: _timed(_apply_gate_run, sv.amps[lo : lo + slab], op), slabs))

        for op, qubit in layers:
            # the step's first gate is the next timing row
            idx, gates = len(gate_rows), op.gates if isinstance(op, CostLayer) else op
            exchange_s, moved = (0.0, 0) if qubit is None else swap(qubit)
            compute_s = compute(op)
            if qubit is not None:
                # the restore leg moves the same amplitudes home and is not counted
                exchange_s += swap(qubit)[0]
            gate_rows.append(GateTiming(idx, gates[0].kind, compute_s, exchange_s, moved))
            gate_rows.extend(
                GateTiming(idx + k, g.kind, 0.0, 0.0, 0) for k, g in enumerate(gates[1:], 1)
            )

    record = TimingRecord(
        nq=plan.nq,
        p=circuit.p,
        num_shards=plan.num_shards,
        wall_seconds=time.perf_counter() - wall0,
        gates=gate_rows,
    )
    return sv, record


# ---------------------------------------------------------------------------
# scaling sweeps


@dataclass
class SweepConfig:
    """Benchmark sweep: strong scaling (fixed nq, varying shards) or
    problem-size scaling (varying nq, shards growing with it)."""

    mode: str = "strong"
    p: int = 3
    delta_beta: float = 0.2
    delta_gamma: float = 0.2
    seed: int = 1
    precision: Precision | str = Precision.FP32
    repeat: int = 1
    memory_budget: int | None = None
    nq: int | None = None
    shard_counts: tuple[int, ...] = (1, 2, 4)
    nq_values: tuple[int, ...] = ()
    nq_local: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("strong", "size"):
            raise ValidationError(f"sweep mode must be 'strong' or 'size', got {self.mode!r}")
        if self.repeat < 1:
            raise ValidationError(f"repeat must be positive, got {self.repeat}")
        if self.mode == "strong" and (self.nq is None or not self.shard_counts):
            raise ValidationError("strong-scaling sweep needs nq and shard_counts")
        if self.mode == "size" and (not self.nq_values or self.nq_local is None):
            raise ValidationError("size sweep needs nq_values and nq_local")


def scaling_sweep(cfg: SweepConfig) -> list[TimingRecord]:
    params = LrQaoaParams(p=cfg.p, delta_beta=cfg.delta_beta, delta_gamma=cfg.delta_gamma)
    runs: list[tuple[CircuitIR, ShardPlan]] = []
    if cfg.mode == "strong":
        circuit = build_circuit(generate_instance(cfg.nq, cfg.seed), params)
        for count in cfg.shard_counts:
            runs.append((circuit, plan_for_shard_count(cfg.nq, count)))
    else:
        for nq in cfg.nq_values:
            if nq < cfg.nq_local:
                raise ValidationError(f"nq={nq} below nq_local={cfg.nq_local}")
            circuit = build_circuit(generate_instance(nq, cfg.seed), params)
            runs.append((circuit, plan_shards(nq, cfg.nq_local)))
    records = []
    for circuit, plan in runs:
        for _ in range(cfg.repeat):
            _, record = run_circuit_sharded(
                circuit, plan, cfg.precision, cfg.memory_budget
            )
            records.append(record)
    return records
