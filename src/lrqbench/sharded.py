"""Shard plans, exchange accounting, timing records and scaling sweeps.

A plan splits the amplitudes into 2^(nq - nq_local) contiguous shards of
2^nq_local; shard s owns the basis states whose top bits equal s.
``run_circuit_sharded`` runs a plan through the engine's step loop
(``engine._run_steps``, with its slabs, legs and barrier) on
``_workers`` slabs, so the state is the dense engine's, bit for bit.

Shards of fewer than min(4, nq) qubits, one qubit group, are refused.
One leg-apply-restore counts as one exchange of the amplitudes the
outward leg moves to another shard (the restore leg moves them home),
the convention on which the static ``exchange_volume`` and the measured
counters agree; both read ``engine._layer_plan``, in which a folded H
layer takes no step.  The timing record keeps one row per gate: a step's
figures go on its row (see ``engine._layer_plan``), the others carry
zeros.  The memory budget covers a run's whole need
(``engine._run_bytes``); a sweep checks its largest run's once, before
it builds any circuit.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import IO, Iterable

from .circuit import CircuitIR, LrQaoaParams, build_circuit
from .engine import (
    _GROUP_BITS,
    Precision,
    StateVector,
    _Counts,
    _layer_plan,
    _moved,
    _run_bytes,
    _run_steps,
    check_memory,
)
from .errors import ValidationError
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
    """Split nq qubits into 2^(nq - nq_local) shards of 2^nq_local amplitudes,
    nq_local >= min(4, nq): a shard must hold a whole qubit group
    (``engine._groups``), which a gate run applies inside it."""
    if nq < 1:
        raise ValidationError(f"need at least one qubit, got {nq}")
    if not min(_GROUP_BITS, nq) <= nq_local <= nq:
        raise ValidationError(
            f"nq_local must satisfy {min(_GROUP_BITS, nq)} <= nq_local <= nq (a shard "
            f"holds a whole qubit group), got {nq_local} for nq={nq}"
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
    steps the engine executes): per gate run and qubit group holding j >= 1
    global qubits, the (1 - 2^-j) of the state its leg moves to another
    shard.  Diagonal layers never exchange, nor does a folded H layer.
    """
    _, _, steps = _layer_plan(circuit, plan.nq_local)
    return sum(_moved(leg, plan.nq_local, 1 << plan.nq) for _, leg, _ in steps if leg)


# ---------------------------------------------------------------------------
# timing


@dataclass(frozen=True, slots=True)
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


def _timing_bytes(rows: int) -> int:
    """Bytes ``rows`` timing rows hold until their CSV is written: each
    row's ``GateTiming`` and list slot, its share of its ``TimingRecord``,
    and its CSV text in a ``StringIO``, the value taken from it and that
    encoded: 390 a row, 100 above the 220 to 290 traced for ``bench`` runs
    of 2 to 12 qubits at p = 1 and 3 (CPython 3.11; 260 to 330 before
    ``GateTiming`` had slots)."""
    return 390 * rows


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


def _workers(plan: ShardPlan) -> int:
    """The slabs a run computes on: the largest power of two up to both the
    shard count and the CPUs the process may use (its affinity set, where
    the platform has one)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return 1 << (min(plan.num_shards, cpus).bit_length() - 1)


def run_circuit_sharded(
    circuit: CircuitIR,
    plan: ShardPlan,
    precision: Precision | str = Precision.FP32,
    memory_budget: int | None = None,
    shots: int = 0,
) -> tuple[StateVector, TimingRecord]:
    """Run the gate list across shards; returns the full state plus timings.
    The budget counts ``shots`` draws from the state, as ``run_circuit``'s.

    The run is ``engine._run_steps`` with the plan's local qubits on
    ``_workers(plan)`` slabs, so a single-shard plan makes the dense
    engine's executor calls, in its order, on the calling thread:
    bit-identical amplitudes.  ``wall_seconds`` spans the steps, from
    after the state is allocated.
    """
    if circuit.num_qubits != plan.nq:
        raise ValidationError(
            f"circuit has {circuit.num_qubits} qubits but plan covers {plan.nq}"
        )
    sv, wall, steps = _run_steps(
        circuit, plan.nq_local, precision, memory_budget, shots, _workers(plan)
    )
    # a step's figures go on its row; other rows keep zeros
    gates = [GateTiming(i, g.kind, 0.0, 0.0, 0) for i, g in enumerate(circuit.gates)]
    for i, compute_s, exchange_s, moved in steps:
        gates[i] = GateTiming(i, gates[i].kind, compute_s, exchange_s, moved)
    return sv, TimingRecord(plan.nq, circuit.p, plan.num_shards, wall, gates)


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
    """Every run's timing records, in order, once the largest run's
    ``engine._run_bytes`` and every run's timing rows (``_timing_bytes``)
    fit the budget; each size's circuit is built when its first run is due
    and dropped before the next size's."""
    params = LrQaoaParams(p=cfg.p, delta_beta=cfg.delta_beta, delta_gamma=cfg.delta_gamma)
    precision = Precision.coerce(cfg.precision)
    if cfg.mode == "strong":
        plans = [plan_for_shard_count(cfg.nq, count) for count in cfg.shard_counts]
    elif min(cfg.nq_values) < cfg.nq_local:
        raise ValidationError(f"nq={min(cfg.nq_values)} below nq_local={cfg.nq_local}")
    else:
        plans = [plan_shards(nq, cfg.nq_local) for nq in cfg.nq_values]
    counts = {q.nq: _Counts.lrqaoa(q.nq, cfg.p) for q in plans}
    need, nq = max((_run_bytes(counts[q.nq], precision, _workers(q)), q.nq) for q in plans)
    need += _timing_bytes(cfg.repeat * sum(counts[q.nq].gates for q in plans))
    check_memory(need, cfg.memory_budget, f"bench --mode {cfg.mode} of up to {nq} qubits at {precision.value}")
    records, circuit = [], None
    for plan in plans:
        if circuit is None or circuit.num_qubits != plan.nq:
            circuit = None  # dropped before the next size's is built
            circuit = build_circuit(generate_instance(plan.nq, cfg.seed), params)
        for _ in range(cfg.repeat):
            records.append(run_circuit_sharded(circuit, plan, precision, cfg.memory_budget)[1])
    return records
