import csv
import io
import os
import sys
import threading

import numpy as np
import pytest

import lrqbench.sharded as sharded
from lrqbench import (
    AbortedRunError,
    CircuitIR,
    GateOp,
    LrQaoaParams,
    SweepConfig,
    ValidationError,
    build_circuit,
    exchange_steps,
    exchange_volume,
    generate_instance,
    plan_for_shard_count,
    plan_shards,
    run_circuit,
    run_circuit_sharded,
    scaling_sweep,
    write_timing_csv,
)
from lrqbench.sharded import TIMING_CSV_FIELDS


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


def test_local_gate_needs_no_exchange():
    plan = plan_shards(6, 3)
    assert exchange_steps(GateOp("RX", (2,), 0.1), plan) == []
    assert exchange_steps(GateOp("RZZ", (0, 2), 0.1), plan) == []


def test_global_gate_single_step():
    plan = plan_shards(6, 3)
    steps = exchange_steps(GateOp("RX", (4,), 0.1), plan)
    assert len(steps) == 1
    step = steps[0]
    assert step.global_qubit == 4
    assert step.pair_bit == 1
    assert step.local_slot == 2  # top local slot is free
    assert step.amps_per_shard == 4
    assert step.partner(0b000) == 0b010
    assert sorted(step.pairs(plan.num_shards)) == [(0, 2), (1, 3), (4, 6), (5, 7)]


def test_mixed_gate_slot_skips_local_operand():
    plan = plan_shards(6, 3)
    steps = exchange_steps(GateOp("RZZ", (2, 5), 0.1), plan)
    assert len(steps) == 1
    # qubit 2 is local to the gate, so the spare slot falls back to 1
    assert steps[0].local_slot == 1


def test_two_global_gate_two_steps():
    plan = plan_shards(6, 3)
    steps = exchange_steps(GateOp("RZZ", (3, 5), 0.1), plan)
    assert [s.global_qubit for s in steps] == [5, 3]
    assert [s.local_slot for s in steps] == [2, 1]


def test_gate_too_large_for_shard():
    plan = plan_shards(4, 1)
    with pytest.raises(ValidationError):
        exchange_steps(GateOp("RZZ", (2, 3), 0.1), plan)


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
    circ = build_circuit(generate_instance(6, 0), LrQaoaParams(p=1))
    calls = {"n": 0}
    real = sharded._apply_gate_run

    def flaky(amps, gates):
        calls["n"] += 1
        if calls["n"] > 10:
            raise RuntimeError("injected kernel fault")
        real(amps, gates)

    monkeypatch.setattr(sharded, "_apply_gate_run", flaky)
    with pytest.raises(AbortedRunError):
        run_circuit_sharded(circ, plan_shards(6, 4), "fp64")


def test_cost_layer_failure_aborts_run(monkeypatch):
    circ = build_circuit(generate_instance(6, 0), LrQaoaParams(p=1))

    def broken(amps, cut, offset=0):
        raise RuntimeError("injected cost-layer fault")

    monkeypatch.setattr(sharded, "_apply_cost_layer", broken)
    with pytest.raises(AbortedRunError) as exc:
        run_circuit_sharded(circ, plan_shards(6, 4), "fp64")
    assert isinstance(exc.value.__cause__, RuntimeError)


def test_shard_tasks_run_on_bounded_threads(monkeypatch):
    circ = build_circuit(generate_instance(8, 3), LrQaoaParams(p=1))
    threads = set()
    real = sharded._apply_gate_run

    def recording(amps, gates):
        threads.add(threading.get_ident())
        real(amps, gates)

    monkeypatch.setattr(sharded, "_apply_gate_run", recording)
    run_circuit_sharded(circ, plan_for_shard_count(8, 64), "fp64")
    assert 1 <= len(threads) <= (os.cpu_count() or 1)


def test_more_threads_than_cores_keep_dense_bits(monkeypatch):
    # eight pool threads on fast thread switches: a lost or overlapping
    # update in a swap leg or a kernel would break bitwise equality
    circ = build_circuit(generate_instance(8, 31), LrQaoaParams(p=3))
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
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
