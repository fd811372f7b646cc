"""Sharded statevector execution with explicit exchange accounting.

The amplitude array splits into 2^(nq - nq_local) contiguous shards of
2^nq_local amplitudes; shard s owns the basis states whose top bits equal
s.  All shards are rows of one state array, viewed as
(num_shards, shard_len), and the engine runs the circuit's layer view
(``CircuitIR.layers``) over them.

A cost layer (a run of RZZ gates) is diagonal, so each shard multiplies
its own index range by the layer's phases through the dense engine's
executor, whatever qubits the layer touches: diagonal layers never
exchange, and their phases match the dense engine's bit for bit.  The
coordinator builds a layer's phase tables when the layer is due and
hands the same read-only tables to every shard.

The leading H layer is folded as in the dense engine: every row starts
filled with the amplitude those gates leave, so they neither compute nor
exchange, and ``exchange_volume`` reads the same folded layer view.

A stretch of consecutive H and RX gates on local qubits runs inside each
shard as one call of the dense engine's one-qubit executor.  A gate on a
global qubit g runs as its stand-in on the top local qubit nq_local - 1.
A swap leg pairs shard s (bit g - nq_local clear) with shard
s | 2^(g - nq_local) and trades the upper half of the first with the
lower half of the second, two contiguous runs of L/2 amplitudes, which
transposes qubit g with the top local qubit; the stand-in runs in every
shard, and a second leg swaps back.  A leg copies its halves piece by
piece through one buffer of at most 2^14 amplitudes per pair.  One such
swap-apply-restore counts as a single exchange of L/2 amplitudes per
shard; the restore leg moves the same amplitudes home and is not
double-counted, and the static ``exchange_volume`` and the counters
measured during a run agree exactly on that convention.

Per-shard work runs on one thread pool of min(num_shards, CPU count)
threads.  Every step maps one task per shard (or per pair, for a swap
leg) and the map returning is the barrier; no task waits on another,
and tasks of one step touch disjoint amplitudes, so results cannot
depend on scheduling.  The timing record keeps one row per gate: compute
is the slowest shard's kernel span, exchange sums over the swap legs the
slowest pair's copy, and the exchanged amplitudes are counted from the
halves actually copied on the outward legs.  The compute time of a cost
layer, or of a stretch of local H and RX gates, goes on the row of its
first gate, and its other rows carry zeros, as do the folded H gates.
An exception in any task aborts the run.  The memory budget covers the
state and each thread's executor scratch (``engine._run_scratch_bytes``),
which also bounds a swap leg's buffer.
"""

from __future__ import annotations

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
    moves = sum(qubit is not None for _, _, qubit in layers)
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
    ``engine._fold_h``) and the (index of the first gate, step, global
    qubit or None) of every step in execution order.

    A step is a cost layer, or a tuple of H/RX gates every shard runs with
    ``_apply_gate_run``: a stretch of consecutive gates on local qubits,
    or one gate on a global qubit as its stand-in on the top local qubit,
    which the swap legs trade with the global qubit and back.  Folded H
    gates take no step.
    """
    start, runs = _fold_h(circuit, dtype)
    out = []
    idx = 0 if start is None else circuit.num_qubits
    for op in runs:
        if isinstance(op, CostLayer):
            out.append((idx, op, None))
            idx += len(op.gates)
            continue
        for local, gates in itertools.groupby(op, key=lambda g: g.qubits[0] < plan.nq_local):
            if local:
                stretch = tuple(gates)
                out.append((idx, stretch, None))
                idx += len(stretch)
                continue
            for gate in gates:
                stand_in = replace(gate, qubits=(plan.nq_local - 1,))
                out.append((idx, (stand_in,), gate.qubits[0]))
                idx += 1
    return start, out


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _swap_halves(rows: np.ndarray, low: int, high: int) -> tuple[float, int]:
    """Trade shard ``low``'s upper half for shard ``high``'s lower half, which
    transposes the pair's global qubit with the top local qubit; the swap
    is its own inverse.  The halves go piece by piece through one buffer
    of at most 2^(_GATE_BLOCK_BITS - 1) amplitudes.  Returns the seconds
    taken and the amplitudes that changed shards."""
    t0 = time.perf_counter()
    h = rows.shape[1] // 2
    mine, theirs = rows[low, h:], rows[high, :h]
    held = np.empty(min(h, 1 << (_GATE_BLOCK_BITS - 1)), rows.dtype)
    for lo in range(0, h, held.size):
        part = slice(lo, lo + held.size)
        held[...] = mine[part]
        mine[part] = theirs[part]
        theirs[part] = held
    return time.perf_counter() - t0, 2 * h


def run_circuit_sharded(
    circuit: CircuitIR,
    plan: ShardPlan,
    precision: Precision | str = Precision.FP32,
    memory_budget: int | None = None,
) -> tuple[StateVector, TimingRecord]:
    """Run the gate list across shards; returns the full state plus timings.

    A single-shard plan degenerates to the dense engine: same kernels,
    same order, bit-identical amplitudes.
    """
    precision = Precision.coerce(precision)
    if circuit.num_qubits != plan.nq:
        raise ValidationError(
            f"circuit has {circuit.num_qubits} qubits but plan covers {plan.nq}"
        )
    start, layers = _layer_plan(circuit, plan, precision.dtype)
    workers = min(plan.num_shards, os.cpu_count() or 1)
    scratch = _run_scratch_bytes(plan.nq, precision, workers)
    sv = zero_state(plan.nq, precision, memory_budget, scratch)
    rows = sv.amps.reshape(plan.num_shards, plan.shard_len)
    shards = range(plan.num_shards)
    gate_rows: list[GateTiming] = []

    wall0 = time.perf_counter()
    if start is not None:
        # the folded H layer: rows start as its amplitude, and its gates
        # keep their timing rows with nothing computed or exchanged
        sv.amps.fill(start)
        gate_rows.extend(GateTiming(q, "H", 0.0, 0.0, 0) for q in range(plan.nq))
    with ThreadPoolExecutor(max_workers=workers) as pool:

        def each(fn, items) -> list:
            # map's return is the barrier: no task waits on another
            try:
                return list(pool.map(fn, items))
            except Exception as exc:
                raise AbortedRunError(f"shard task failed: {exc}") from exc

        def swap(g: int) -> tuple[float, int]:
            """One leg over every pair of shards that differ in global qubit g:
            the slowest pair's seconds, amplitudes moved."""
            bit = 1 << (g - plan.nq_local)
            lows = [s for s in shards if not s & bit]
            legs = each(lambda s: _swap_halves(rows, s, s | bit), lows)
            return max(t for t, _ in legs), sum(m for _, m in legs)

        def compute(op) -> float:
            """Run a step in every shard: the slowest shard's seconds.  A cost
            layer's tables are built here when the layer is due and dropped
            on return, so one layer's are alive at a time."""
            if isinstance(op, CostLayer):
                phase = _CostPhase(op)
                return max(
                    each(lambda s: _timed(_apply_cost_layer, rows[s], phase, s * plan.shard_len), shards)
                )
            return max(each(lambda s: _timed(_apply_gate_run, rows[s], op), shards))

        for idx, op, qubit in layers:
            gates = op.gates if isinstance(op, CostLayer) else op
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
