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
import lrqbench.noise as noise
import lrqbench.sharded as sharded
from lrqbench import (
    AbortedRunError,
    CircuitIR,
    CostLayer,
    DepolarizingConfig,
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
    run_noisy_ensemble,
    scaling_sweep,
    write_timing_csv,
)
from lrqbench.sharded import TIMING_CSV_FIELDS, ShardPlan


def test_plan_shards_published_sizes():
    assert plan_shards(46, 33).num_shards == 8192
    assert plan_shards(48, 34).num_shards == 16384
    plan = plan_shards(6, 4)
    assert (plan.num_shards, plan.shard_len) == (4, 16)


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


@pytest.mark.parametrize("nq,least", [(1, 1), (3, 3), (4, 4), (5, 4), (30, 4)])
def test_plans_below_one_group_are_refused(nq, least):
    # a shard holds a whole qubit group, up to 4 qubits wide
    assert plan_shards(nq, least).shard_len == 1 << least
    with pytest.raises(ValidationError, match="qubit group"):
        plan_shards(nq, least - 1)


def test_shard_plan_derives_its_sizes():
    assert [f.name for f in dataclasses.fields(ShardPlan)] == ["nq", "nq_local"]
    plan = ShardPlan(7, 4)
    assert (plan.num_shards, plan.shard_len) == (8, 16)


def test_local_gate_needs_no_exchange():
    plan = plan_shards(6, 4)
    circ = CircuitIR(num_qubits=6, gates=[GateOp("RX", (2,), 0.1), GateOp("RZZ", (0, 5), 0.1)])
    _, _, layers = engine._layer_plan(circ, plan.nq_local)
    assert [leg for _, leg, _ in layers] == [None, None]


def test_global_gate_single_step():
    # RX on global qubit 4 of 4 shards of 16 amplitudes: its group [4, 6)
    # holds both global qubits, and one step applies it on local bits [2, 4)
    plan = plan_shards(6, 4)
    circ = CircuitIR(num_qubits=6, gates=[GateOp("RX", (4,), 0.1)])
    _, _, layers = engine._layer_plan(circ, plan.nq_local)
    [(run, leg, row)] = layers
    assert (leg, row) == ((4, 2), 0)
    assert [q for q, _ in run.products] == [2]
    assert engine._moved(leg, plan.nq_local, 64) == 48
    # the leg exchanges the bit fields [2, 4) and [4, 6): index z then holds
    # the amplitude of z with those fields swapped, and the restore leg undoes it
    amps = np.arange(64, dtype=np.complex128)
    engine._swap_fields(amps, leg, plan.nq_local, False)
    z = np.arange(64)
    np.testing.assert_array_equal(amps, (z & 3) | ((z >> 4) & 3) << 2 | ((z >> 2) & 3) << 4)
    engine._swap_fields(amps, leg, plan.nq_local, True)
    np.testing.assert_array_equal(amps, z)


def test_leg_of_a_group_above_the_top_local_bits():
    # n=12 on shards of 16: group [8, 12) trades places with the local bits
    # [0, 4), over the global bits [4, 8) between them
    assert engine._moved((8, 4), 4, 1 << 12) == 15 << 8
    amps = np.arange(1 << 12, dtype=np.complex64)
    engine._swap_fields(amps, (8, 4), 4, False)
    z = np.arange(1 << 12)
    np.testing.assert_array_equal(amps, (z & 0xF0) | (z >> 8) | (z & 0xF) << 8)
    engine._swap_fields(amps, (8, 4), 4, True)
    np.testing.assert_array_equal(amps, z)


def test_exchange_volume_hand_count():
    # one RX on the lone global qubit, alone in its group, with 2 shards of
    # 16 amplitudes: the pair trades half a shard, 8 up and 8 down = 16 moved
    plan = plan_shards(5, 4)
    circ = CircuitIR(num_qubits=5, gates=[GateOp("RX", (4,), 0.5)])
    assert exchange_volume(circ, plan) == 16


def test_exchange_volume_counts_two_global_gates_twice():
    # two gates in two global groups take two legs; two in one group, one;
    # each leg of a group of 4 global qubits moves 15/16 of the state
    plan = plan_shards(12, 4)
    one = CircuitIR(num_qubits=12, gates=[GateOp("RX", (8,), 0.5)])
    two = CircuitIR(num_qubits=12, gates=[GateOp("RX", (4,), 0.5), GateOp("RX", (8,), 0.5)])
    same = CircuitIR(num_qubits=12, gates=[GateOp("RX", (8,), 0.5), GateOp("RX", (11,), 0.5)])
    assert exchange_volume(one, plan) == exchange_volume(same, plan) == 15 << 8
    assert exchange_volume(two, plan) == 2 * exchange_volume(one, plan)
    # diagonal gates never exchange, even on two global qubits
    rzz = CircuitIR(num_qubits=12, gates=[GateOp("RZZ", (8, 11), 0.5)])
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
    # n=17: on two shards of 2^16 and four of 2^15 the group [16, 17) runs
    # after a leg, and on the dense state as a strided pass
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
    # shards of 16 amplitudes, the smallest admitted: group [4, 8) is
    # global and next to the local bits, and group [8, 10) above them
    circ = build_circuit(generate_instance(10, 7), LrQaoaParams(p=2))
    plan = plan_shards(10, 4)
    sv, record = run_circuit_sharded(circ, plan, "fp64")
    np.testing.assert_array_equal(sv.amps, run_circuit(circ, "fp64").amps)
    assert record.amps_exchanged == exchange_volume(circ, plan) > 0


def test_swap_leg_holds_one_bounded_piece():
    # n=18 fp32 on 2 shards: the leg of group [16, 18) trades the local bit
    # 15 with the group's bits, in runs of 2^15 amplitudes through one
    # buffer of 2^14
    assert engine._moved((16, 2), 17, 1 << 18) == 1 << 17
    amps = np.arange(1 << 18, dtype=np.complex64)
    tracemalloc.start()
    try:
        engine._swap_fields(amps, (16, 2), 17, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 << 14) * 8 + 1024
    z = np.arange(1 << 18)
    # index z then holds the amplitude whose bits 16, 17 are z's 15, 16, and bit 15 z's 17
    want = (z & 0x7FFF) | ((z >> 17) & 1) << 15 | ((z >> 15) & 3) << 16
    np.testing.assert_array_equal(amps, want)


def test_folded_h_layer_exchanges_nothing():
    # n=18 on 2 shards at p=3: only the legs of the 3 mixers' group
    # [16, 18), which holds qubit 17, exchange, each moving half the state
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
    exchanged = []
    for row, gate in zip(record.gates, circ.gates):
        if gate.kind == "H":
            # the folded H layer neither computes nor exchanges
            assert (row.compute_s, row.exchange_s, row.amps_exchanged) == (0.0, 0.0, 0)
        elif all(q < plan.nq_local for q in gate.qubits) or gate.kind == "RZZ":
            assert row.exchange_s == 0.0
            assert row.amps_exchanged == 0
        else:
            exchanged.append(row.amps_exchanged)
    # the RX gates on qubits 4 and 5 share one leg, on the row of the first:
    # group [4, 6) holds both global qubits, so 3/4 of the state moves
    assert exchanged == [48, 0] and exchange_volume(circ, plan) == 48
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
    plan = plan_for_shard_count(8, 16)
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
    # 256 shards of 16 amplitudes: a cost layer is one executor call per
    # worker, however many shards there are; a gate run's slabs hold at
    # least one product call of 16 x 64 amplitudes, so it takes at most 4
    circ = build_circuit(generate_instance(12, 8), LrQaoaParams(p=1))
    plan = plan_for_shard_count(12, 256)
    use_cpus(monkeypatch, cpus)
    workers = sharded._workers(plan)
    calls = record_executor_calls(monkeypatch)
    sv, _ = run_circuit_sharded(circ, plan, "fp64")
    _, _, steps = engine._layer_plan(circ, plan.nq_local)
    want = []
    for op, *_ in steps:
        slabs = workers if isinstance(op, CostLayer) else min(workers, 4)
        want += [("cost" if isinstance(op, CostLayer) else "run", (1 << 12) // slabs)] * slabs
    assert [(kind, size) for kind, size, *_ in calls] == want
    assert sv.amps.tobytes() == run_circuit(circ, "fp64").amps.tobytes()


def test_cost_layers_run_on_ranges_of_2_to_the_k_at_multiples_of_2_to_the_k(monkeypatch):
    # what _apply_cost_layer relies on, at every call of a dense run, a
    # sharded run at each plan for n = 9 (slabs down to 16 amplitudes) and
    # a noisy run (whole states as rows)
    circ = build_circuit(generate_instance(9, 5), LrQaoaParams(p=2))
    ranges = []
    for module in (engine, noise):

        def cost(amps, phase, offset=0, real=module._apply_cost_layer):
            ranges.append((offset, amps.shape[-1]))
            real(amps, phase, offset)

        monkeypatch.setattr(module, "_apply_cost_layer", cost)
    use_cpus(monkeypatch, 32)
    run_circuit(circ, "fp32")
    for shards in (1, 2, 4, 8, 16, 32):
        run_circuit_sharded(circ, plan_for_shard_count(9, shards), "fp32")
    dense_and_sharded = len(ranges)
    run_noisy_ensemble(circ, DepolarizingConfig(0.05, 8, 1), 4, threads=2)
    assert dense_and_sharded == 2 * (1 + 1 + 2 + 4 + 8 + 16 + 32) < len(ranges)
    assert {size for _, size in ranges} == {1 << k for k in range(4, 10)}
    for offset, size in ranges:
        assert size & (size - 1) == 0 and size >= 4 and offset % size == 0


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


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n", [5, 8])
def test_a_sparse_frame_keeps_the_dense_bytes_of_zero_amplitudes(monkeypatch, n, precision):
    # RX on qubits 0, 2 and n - 1 around a cost layer: the frame is those
    # qubits, the state is zero wherever another qubit is set, and the
    # leave pass splits its slabs at other places than the dense run;
    # each unit is taken by its exponent, never formed as a product, so
    # every zero part keeps its sign (np.array_equal holds either way)
    use_cpus(monkeypatch, 16)
    rx = [GateOp("RX", (q,), 0.7 + 0.1 * q) for q in (0, 2, n - 1)]
    circ = CircuitIR(n, rx + [GateOp("RZZ", (0, 1), 0.3)] + rx)
    assert engine._layer_plan(circ, n)[1] == 0b101 | 1 << (n - 1)
    dense = run_circuit(circ, precision).amps.tobytes()
    for shards in (2, 4, 8, 16)[: n - 4]:
        assert run_circuit_sharded(circ, plan_for_shard_count(n, shards), precision)[0].amps.tobytes() == dense


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
