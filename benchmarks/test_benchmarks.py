"""Tests of the benchmark itself, at smoke sizes (a few seconds each).

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
from spans import Span, layer_metrics

LRQ = run.load_package()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*argv: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} = " in proc.stdout
    if trace and workload == "sharded_strong":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["sharded.amps_exchanged.s2"] == metrics["sharded.exchange_volume.s2"] > 0


def measure_in_process(workload: str) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "5", "--seconds", "0", "--smoke"])
    cpus = os.sched_getaffinity(0)
    try:
        result, _ = run.measure(args)
    finally:
        os.sched_setaffinity(0, cpus)  # sharded_strong pins its process
    return result


def corrupt_result(monkeypatch, module, name: str, corrupt) -> None:
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: corrupt(original(*a, **k)))


def test_corrupted_amplitude_in_the_pipeline_counts_as_failed(monkeypatch):
    def scale_one_amplitude(sv):
        sv.amps[3] *= 2
        return sv

    corrupt_result(monkeypatch, LRQ.cli, "run_circuit", scale_one_amplitude)
    result = measure_in_process("pipeline_n20")
    assert result["failed"] > 0 and not result["correct"]


def test_flipped_sharded_amplitude_counts_as_failed(monkeypatch):
    def flip_one_amplitude(result):
        sv, record = result
        sv.amps[1] = -sv.amps[1]
        return sv, record

    corrupt_result(monkeypatch, LRQ.sharded, "run_circuit_sharded", flip_one_amplitude)
    result = measure_in_process("sharded_strong")
    assert result["failed"] > 0 and not result["correct"]


def test_wrong_exchange_count_counts_as_failed(monkeypatch):
    def miscount(result):
        sv, record = result
        first = record.gates[0]
        record.gates[0] = dataclasses.replace(first, amps_exchanged=first.amps_exchanged + 1)
        return sv, record

    corrupt_result(monkeypatch, LRQ.sharded, "run_circuit_sharded", miscount)
    result = measure_in_process("sharded_strong")
    assert result["failed"] > 0 and not result["correct"]


def test_nonpositive_fit_counts_as_failed(monkeypatch):
    def negate_k0(fit):
        return dataclasses.replace(fit, k0=-abs(fit.k0))

    corrupt_result(monkeypatch, LRQ.cli, "fit_k0", negate_k0)
    result = measure_in_process("noise_decay")
    assert result["failed"] > 0 and not result["correct"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("kernel", sorted(hostspeed.KERNELS))
def test_host_speed_helper_samples_and_exits(kernel):
    with hostspeed.HostSpeed(kernel) as speed:
        assert speed.sample() > 0 and speed.sample() > 0
        assert speed.factor(speed.samples) > 0
    assert speed.proc.returncode == 0


def test_self_time_subtracts_direct_children():
    def span(i, parent, name, start, end, caller="lrqbench.cli"):
        s = Span(i, parent, 1, name, caller, 0, start)
        s.end = end
        return s

    spans = [
        span(1, None, "lrqbench.cli.main", 0, 10_000_000_000),
        span(2, 1, "lrqbench.engine.run_circuit", 1_000_000_000, 5_000_000_000),
        span(3, 2, "lrqbench.engine.zero_state", 1_000_000_000, 2_000_000_000, "lrqbench.engine"),
        span(4, 1, "lrqbench.rng.derive_rng", 6_000_000_000, 7_000_000_000),
    ]
    spans[0].counts = {"bytes_written": 10}
    spans[1].counts = {"gates": 4, "amps": 8, "state_bytes": 64}
    m = layer_metrics(spans, iterations=2, rss_growth_mib=1.0)
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["engine.self_s"] == pytest.approx(2.0)
    assert m["engine.run_s"] == pytest.approx(2.0)
    assert m["rng.s"] == pytest.approx(0.5)
    assert m["cli.invocations"] == 0  # two iterations, one invocation
