import csv
import dataclasses
import io
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import lrqbench.engine as engine
import lrqbench.sharded as sharded
from lrqbench import (
    AbortedRunError,
    CircuitIR,
    GateOp,
    LrQaoaParams,
    SweepConfig,
    ValidationError,
    build_circuit,
    exchange_volume,
    generate_instance,
    plan_for_shard_count,
    plan_shards,
    run_circuit,
    run_circuit_sharded,
    scaling_sweep,
    write_timing_csv,
)
from lrqbench.sharded import TIMING_CSV_FIELDS, ShardPlan


def test_plan_shards_published_sizes():
    assert plan_shards(46, 33).num_shards == 8192
    assert plan_shards(48, 34).num_shards == 16384
    plan = plan_shards(5, 3)
    assert (plan.num_shards, plan.shard_len) == (4, 8)


def test_plan_for_shard_count():
    plan = plan_for_shard_count(12, 8)
    assert (plan.nq_local, plan.num_shards) == (9, 8)
    with pytest.raises(ValidationError):
        plan_for_shard_count(12, 3)
    with pytest.raises(ValidationError):
        plan_for_shard_count(3, 8)


def test_plan_shards_validation():
    with pytest.raises(ValidationError):
        plan_shards(5, 0)
    with pytest.raises(ValidationError):
        plan_shards(5, 6)


def test_shard_plan_derives_its_sizes():
    assert [f.name for f in dataclasses.fields(ShardPlan)] == ["nq", "nq_local"]
    plan = ShardPlan(7, 4)
    assert (plan.num_shards, plan.shard_len) == (8, 16)


def test_local_gate_needs_no_exchange():
    plan = plan_shards(6, 3)
    circ = CircuitIR(num_qubits=6, gates=[GateOp("RX", (2,), 0.1), GateOp("RZZ", (0, 5), 0.1)])
    _, layers = engine._layer_plan(circ, plan.nq_local)
    assert [qubit for _, qubit in layers] == [None, None]


def test_global_gate_single_step():
    # RX on global qubit 4 of 8 shards of 8 amplitudes runs as its stand-in
    # on the top local qubit 2, and the legs pair shard s with s | 2
    plan = plan_shards(6, 3)
    circ = CircuitIR(num_qubits=6, gates=[GateOp("RX", (4,), 0.1)])
    _, layers = engine._layer_plan(circ, plan.nq_local)
    assert layers == [((GateOp("RX", (2,), 0.1),), 4)]
    rows = np.arange(64).reshape(plan.num_shards, plan.shard_len)
    _, moved = engine._swap_halves(rows, [0, 1, 4, 5], 2)
    assert moved == 4 * plan.shard_len
    # one leg transposes qubits 2 and 4: index z now holds the amplitude
    # of z with those two bits exchanged
    z = np.arange(64)
    swapped = z ^ ((((z >> 2) ^ (z >> 4)) & 1) * 0b10100)
    np.testing.assert_array_equal(rows.reshape(-1), swapped)


def test_exchange_volume_hand_count():
    # one RX on the lone global qubit with 2 shards of 8 amplitudes:
    # the pair trades half a shard, 4 up and 4 down = 8 moved
    plan = plan_shards(4, 3)
    circ = CircuitIR(num_qubits=4, gates=[GateOp("RX", (3,), 0.5)])
    assert exchange_volume(circ, plan) == 8


def test_exchange_volume_counts_two_global_gates_twice():
    plan = plan_shards(4, 2)
    one = CircuitIR(num_qubits=4, gates=[GateOp("RX", (3,), 0.5)])
    two = CircuitIR(num_qubits=4, gates=[GateOp("RX", (2,), 0.5), GateOp("RX", (3,), 0.5)])
    assert exchange_volume(two, plan) == 2 * exchange_volume(one, plan)
    # diagonal gates never exchange, even on two global qubits
    rzz = CircuitIR(num_qubits=4, gates=[GateOp("RZZ", (2, 3), 0.5)])
    assert exchange_volume(rzz, plan) == 0


@pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
def test_sharded_matches_dense_bitwise(num_shards):
    inst = generate_instance(8, 31)
    circ = build_circuit(inst, LrQaoaParams(p=3))
    dense = run_circuit(circ, "fp64")
    plan = plan_for_shard_count(8, num_shards)
    sv, record = run_circuit_sharded(circ, plan, "fp64")
    np.testing.assert_array_equal(sv.amps, dense.amps)
    assert record.amps_exchanged == exchange_volume(circ, plan)
    assert record.num_shards == num_shards


def test_sharded_fp32_matches_dense_bitwise():
    inst = generate_instance(7, 5)
    circ = build_circuit(inst, LrQaoaParams(p=2))
    dense = run_circuit(circ, "fp32")
    sv, _ = run_circuit_sharded(circ, plan_for_shard_count(7, 4), "fp32")
    assert sv.amps.dtype == np.complex64
    np.testing.assert_array_equal(sv.amps, dense.amps)


@pytest.mark.parametrize("num_shards", [2, 4])
def test_sharded_blocked_runs_match_dense_bitwise(num_shards):
    # n=17: two shards of 2^16 run gate stretches block by block, four
    # shards of 2^15 gate by gate, and the dense state is blocked
    circ = build_circuit(generate_instance(17, 4), LrQaoaParams(p=2))
    dense = run_circuit(circ, "fp32")
    sv, record = run_circuit_sharded(circ, plan_for_shard_count(17, num_shards), "fp32")
    np.testing.assert_array_equal(sv.amps, dense.amps)
    assert len(record.gates) == len(circ.gates)


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_sharded_matches_dense_bitwise_at_scale(n):
    # 8 shards at n=17 hold 2^14 amplitudes, below a 2^16 cost block
    circ = build_circuit(generate_instance(n, 50 + n), LrQaoaParams(p=2))
    dense = run_circuit(circ, "fp32").amps.tobytes()
    for num_shards in (2, 4, 8):
        sv, _ = run_circuit_sharded(circ, plan_for_shard_count(n, num_shards), "fp32")
        assert sv.amps.tobytes() == dense, num_shards


def test_smallest_shards_match_dense_bitwise():
    # one local qubit: every RX runs as its stand-in on qubit 0, and each
    # leg trades one-amplitude halves between 32 pairs of shards
    circ = build_circuit(generate_instance(6, 7), LrQaoaParams(p=2))
    plan = plan_shards(6, 1)
    sv, record = run_circuit_sharded(circ, plan, "fp64")
    np.testing.assert_array_equal(sv.amps, run_circuit(circ, "fp64").amps)
    assert record.amps_exchanged == exchange_volume(circ, plan) > 0


def test_swap_leg_holds_one_bounded_piece():
    # n=18 fp32 on 2 shards: each leg trades halves of 2^16 amplitudes
    # through one buffer of 2^14
    rows = np.arange(1 << 18, dtype=np.complex64).reshape(2, 1 << 17)
    tracemalloc.start()
    try:
        _, moved = engine._swap_halves(rows, [0], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 << 14) * 8 + 1024
    assert moved == 1 << 17
    half = np.arange(1 << 16, dtype=np.complex64)
    np.testing.assert_array_equal(rows[0, 1 << 16 :], half + (1 << 17))
    np.testing.assert_array_equal(rows[1, : 1 << 16], half + (1 << 16))


def test_folded_h_layer_exchanges_nothing():
    # n=18 on 2 shards at p=3: only the 3 RX gates on qubit 17 exchange,
    # each moving 2^16 amplitudes out of each shard of the pair
    circ = build_circuit(generate_instance(18, 6), LrQaoaParams(p=3))
    plan = plan_for_shard_count(18, 2)
    _, record = run_circuit_sharded(circ, plan, "fp32")
    assert record.amps_exchanged == exchange_volume(circ, plan) == 3 * (1 << 17) == 393_216
    buf = io.StringIO()
    write_timing_csv([record], buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == len(circ.gates)
    assert [r["kind"] for r in rows] == [g.kind for g in circ.gates]
    for row in rows[:18]:
        assert row["kind"] == "H"
        assert (float(row["compute_s"]), float(row["exchange_s"]), row["amps_exchanged"]) == (
            0.0,
            0.0,
            "0",
        )


def test_local_gates_report_zero_exchange():
    inst = generate_instance(6, 2)
    circ = build_circuit(inst, LrQaoaParams(p=1))
    plan = plan_shards(6, 4)
    _, record = run_circuit_sharded(circ, plan, "fp64")
    for row, gate in zip(record.gates, circ.gates):
        if gate.kind == "H":
            # the folded H layer neither computes nor exchanges
            assert (row.compute_s, row.exchange_s, row.amps_exchanged) == (0.0, 0.0, 0)
        elif all(q < plan.nq_local for q in gate.qubits) or gate.kind == "RZZ":
            assert row.exchange_s == 0.0
            assert row.amps_exchanged == 0
        else:
            assert row.amps_exchanged > 0
    assert record.compute_seconds > 0.0


def test_plan_circuit_size_mismatch():
    circ = build_circuit(generate_instance(5, 0), LrQaoaParams(p=1))
    with pytest.raises(ValidationError):
        run_circuit_sharded(circ, plan_shards(6, 3))


def test_worker_failure_aborts_run(monkeypatch):
    # three gate-run steps of one call per slab: 3 calls on one worker, 6 on two
    circ = build_circuit(generate_instance(6, 0), LrQaoaParams(p=1))
    calls = {"n": 0}
    real = engine._apply_gate_run

    def flaky(amps, gates):
        calls["n"] += 1
        if calls["n"] > 1:
            raise RuntimeError("injected kernel fault")
        real(amps, gates)

    monkeypatch.setattr(engine, "_apply_gate_run", flaky)
    with pytest.raises(AbortedRunError):
        run_circuit_sharded(circ, plan_shards(6, 4), "fp64")


def test_cost_layer_failure_aborts_run(monkeypatch):
    circ = build_circuit(generate_instance(6, 0), LrQaoaParams(p=1))

    def broken(amps, cut, offset=0):
        raise RuntimeError("injected cost-layer fault")

    monkeypatch.setattr(engine, "_apply_cost_layer", broken)
    with pytest.raises(AbortedRunError) as exc:
        run_circuit_sharded(circ, plan_shards(6, 4), "fp64")
    assert isinstance(exc.value.__cause__, RuntimeError)


@pytest.mark.parametrize("num_shards", [1, 2])
def test_cost_layer_compute_counts_its_phase_build(monkeypatch, num_shards):
    circ = build_circuit(generate_instance(8, 0), LrQaoaParams(p=3))
    real = engine._CostPhase

    def slow(layer):
        time.sleep(0.02)
        return real(layer)

    monkeypatch.setattr(engine, "_CostPhase", slow)
    _, record = run_circuit_sharded(circ, plan_for_shard_count(8, num_shards))
    # a cost layer's time goes on the row of its first RZZ gate
    kinds = [None] + [row.kind for row in record.gates]
    firsts = [row for prev, row in zip(kinds, record.gates) if row.kind == "RZZ" and prev != "RZZ"]
    assert len(firsts) == 3
    assert all(row.compute_s >= 0.02 for row in firsts)


def use_cpus(monkeypatch, cpus: int) -> None:
    """Let the process appear to run on ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def record_executor_calls(monkeypatch) -> list:
    """Wrap both executors where the engine's step loop calls them; returns
    the (executor, size, start in the state, offset argument or None,
    thread) of every call, in order."""
    calls = []

    def start(amps):
        base = amps if amps.base is None else amps.base
        return (amps.ctypes.data - base.ctypes.data) // amps.itemsize

    real_cost, real_run = engine._apply_cost_layer, engine._apply_gate_run

    def cost(amps, phase, offset=0):
        calls.append(("cost", amps.size, start(amps), offset, threading.get_ident()))
        real_cost(amps, phase, offset)

    def run(amps, gates):
        calls.append(("run", amps.size, start(amps), None, threading.get_ident()))
        real_run(amps, gates)

    monkeypatch.setattr(engine, "_apply_cost_layer", cost)
    monkeypatch.setattr(engine, "_apply_gate_run", run)
    return calls


def test_shard_tasks_run_on_bounded_threads(monkeypatch):
    circ = build_circuit(generate_instance(8, 3), LrQaoaParams(p=1))
    plan = plan_for_shard_count(8, 64)
    calls = record_executor_calls(monkeypatch)
    run_circuit_sharded(circ, plan, "fp64")
    assert 1 <= len({thread for *_, thread in calls}) <= sharded._workers(plan)


def test_workers_count_only_the_cpus_the_process_may_use(monkeypatch):
    # the largest power of two up to the shard count and the usable CPUs,
    # which the affinity set gives where there is one, whatever cpu_count says
    plan = plan_for_shard_count(8, 8)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for cpus, workers in ((1, 1), (3, 2), (8, 8), (64, 8)):
        use_cpus(monkeypatch, cpus)
        assert sharded._workers(plan) == workers
    assert sharded._workers(plan_for_shard_count(8, 1)) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert sharded._workers(plan) == 8


@pytest.mark.parametrize("cpus", [1, 3, 8])
def test_steps_call_the_executors_once_per_worker(monkeypatch, cpus):
    # 1 024 shards of 4 amplitudes: each step is one executor call per slab,
    # however many shards there are
    circ = build_circuit(generate_instance(12, 8), LrQaoaParams(p=1))
    plan = plan_for_shard_count(12, 1024)
    use_cpus(monkeypatch, cpus)
    workers = sharded._workers(plan)
    calls = record_executor_calls(monkeypatch)
    sv, _ = run_circuit_sharded(circ, plan, "fp64")
    _, steps = engine._layer_plan(circ, plan.nq_local)
    assert len(calls) == len(steps) * workers
    assert {size for _, size, *_ in calls} == {(1 << 12) // workers}
    assert sv.amps.tobytes() == run_circuit(circ, "fp64").amps.tobytes()


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
def test_one_shard_plan_makes_the_dense_calls_on_the_calling_thread(monkeypatch, precision):
    circ = build_circuit(generate_instance(9, 4), LrQaoaParams(p=2))
    use_cpus(monkeypatch, 8)
    calls = record_executor_calls(monkeypatch)
    dense = run_circuit(circ, precision).amps.tobytes()
    want = calls[:]
    del calls[:]
    sv, _ = run_circuit_sharded(circ, plan_for_shard_count(9, 1), precision)
    # two cost layers and two mixers, each over the whole state
    assert [(kind, size, start) for kind, size, start, *_ in want] == [
        ("cost", 512, 0),
        ("run", 512, 0),
    ] * 2
    assert calls == want
    assert {thread for *_, thread in calls} == {threading.get_ident()}
    assert sv.amps.tobytes() == dense


@pytest.mark.parametrize("cpus", [1, 3, 8])
def test_more_threads_than_cores_keep_dense_bits(monkeypatch, cpus):
    # up to eight pool threads on fast thread switches: a lost or
    # overlapping update in a swap leg or a kernel would break bitwise
    # equality
    circ = build_circuit(generate_instance(8, 31), LrQaoaParams(p=3))
    use_cpus(monkeypatch, cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sv, _ = run_circuit_sharded(circ, plan_for_shard_count(8, 8), "fp64")
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(sv.amps, run_circuit(circ, "fp64").amps)


def test_timing_csv_schema():
    circ = build_circuit(generate_instance(6, 1), LrQaoaParams(p=1))
    _, record = run_circuit_sharded(circ, plan_shards(6, 5), "fp64")
    buf = io.StringIO()
    write_timing_csv([record], buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert tuple(rows[0]) == TIMING_CSV_FIELDS
    assert len(rows) == 1 + len(circ.gates)
    for row in rows[1:]:
        assert row[0] == "6" and row[2] == "2"
        assert row[4] in ("H", "RX", "RZZ")
        float(row[5]), float(row[6])  # parse as numbers
        int(row[7])


def test_scaling_sweep_strong():
    cfg = SweepConfig(mode="strong", nq=7, shard_counts=(1, 2), p=1, precision="fp64")
    records = scaling_sweep(cfg)
    assert [r.num_shards for r in records] == [1, 2]
    assert all(r.nq == 7 for r in records)


def test_scaling_sweep_size_monotone_volume():
    cfg = SweepConfig(mode="size", nq_values=(6, 7, 8), nq_local=5, p=1)
    records = scaling_sweep(cfg)
    volumes = [r.amps_exchanged for r in records]
    assert volumes == sorted(volumes)
    assert volumes[0] < volumes[-1]


def test_sweep_config_validation():
    with pytest.raises(ValidationError):
        SweepConfig(mode="weak")
    with pytest.raises(ValidationError):
        SweepConfig(mode="strong", nq=None)
    with pytest.raises(ValidationError):
        SweepConfig(mode="size", nq_values=())
    with pytest.raises(ValidationError):
        SweepConfig(mode="strong", nq=8, repeat=0)
