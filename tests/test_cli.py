import contextlib
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lrqbench import (
    __version__,
    LrQaoaParams,
    build_circuit,
    load_instance,
    load_statevector,
    run_circuit,
)
from lrqbench.cli import build_parser, main


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    assert run_cli("gen", "--n", 6, "--out", path, "--seed", 3) == 0
    return path


def test_gen_writes_instance_and_manifest(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run_cli("gen", "--n", 8, "--out", out, "--seed", 1) == 0
    inst = load_instance(out)
    assert inst.num_vertices == 8
    assert inst.num_edges == 28
    assert inst.optimal_cut is not None
    assert "optimal=" in capsys.readouterr().out

    manifest = json.loads((tmp_path / "inst.json.manifest.json").read_text())
    assert manifest["tool"] == "lrqbench"
    assert manifest["command"] == "gen"
    assert manifest["argv"][0] == "gen"
    assert manifest["params"]["n"] == 8
    assert manifest["outputs"][str(out)] == sha256(out)
    assert "timestamp_utc" in manifest


def test_gen_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gen", "--n", 7, "--out", a, "--seed", 5)
    run_cli("gen", "--n", 7, "--out", b, "--seed", 5)
    assert a.read_bytes() == b.read_bytes()


def test_gen_above_solve_limit_warns(tmp_path, capsys):
    out = tmp_path / "big.json"
    assert run_cli("gen", "--n", 30, "--out", out, "--seed", 1) == 0
    err = capsys.readouterr().err
    assert "exceeds solve limit" in err
    assert json.loads(out.read_text())["optimal"] is None


def test_simulate_noiseless(tmp_path, instance_path):
    out = tmp_path / "res.json"
    assert run_cli(
        "simulate", "--instance", instance_path, "--out", out,
        "--p", 3, "--shots", 50, "--seed", 3,
    ) == 0
    data = json.loads(out.read_text())
    assert data["mode"] == "noiseless"
    assert data["n"] == 6 and data["p"] == 3
    assert (data["n_1q"], data["n_2q"]) == (24, 45)
    assert len(data["bitstrings"]) == 50
    assert all(len(b) == 6 for b in data["bitstrings"])
    assert 0.0 <= data["mean_r"] <= 1.0
    assert 0.0 <= data["exact_expected_r"] <= 1.0

    # the library reproduces the reported exact expectation
    inst = load_instance(instance_path)
    circ = build_circuit(inst, LrQaoaParams(p=3))
    from lrqbench import exact_expected_r

    want = exact_expected_r(run_circuit(circ, "fp32"), inst)
    assert data["exact_expected_r"] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("shards", [1, 2])
def test_simulate_reports_norm_drift(tmp_path, instance_path, shards):
    from lrqbench import exact_expected_r, sample

    out, dump = tmp_path / "res.json", tmp_path / "state.bin"
    argv = ("simulate", "--instance", instance_path, "--p", 3, "--seed", 12,
            "--shots", 40, "--shards", shards)
    run_cli(*argv, "--out", out, "--dump-state", dump)
    data = json.loads(out.read_text())
    sv = load_statevector(dump)
    assert data["norm_drift"] == abs(sv.norm_squared() - 1.0) <= data["norm_tolerance"]
    assert data["norm_tolerance"] == sv.norm_tolerance() == 10.0 * 64 * 2.0**-23
    # shots and the exact ratio keep the bytes of their own probability vectors
    assert data["bitstrings"] == sample(sv, 40, 12).bitstrings()
    assert data["exact_expected_r"] == exact_expected_r(sv, load_instance(instance_path))
    again = tmp_path / "again.json"
    run_cli(*argv, "--out", again)
    assert again.read_bytes() == out.read_bytes()


def test_simulate_rerun_is_byte_identical(tmp_path, instance_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ("simulate", "--instance", instance_path, "--p", 2, "--seed", 9)
    run_cli(*argv, "--out", a)
    run_cli(*argv, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_simulate_sharded_matches_single(tmp_path, instance_path):
    one = tmp_path / "one.json"
    four = tmp_path / "four.json"
    argv = ("simulate", "--instance", instance_path, "--p", 3, "--seed", 4)
    run_cli(*argv, "--out", one)
    run_cli(*argv, "--out", four, "--shards", 4)
    da, db = json.loads(one.read_text()), json.loads(four.read_text())
    assert da["mean_r"] == db["mean_r"]
    assert da["bitstrings"] == db["bitstrings"]
    timing = tmp_path / "four.timing.csv"
    assert timing.exists()
    header = timing.read_text().splitlines()[0]
    assert header == "nq,p,num_shards,gate_index,kind,compute_s,exchange_s,amps_exchanged"
    manifest = json.loads((tmp_path / "four.json.manifest.json").read_text())
    assert str(timing) in manifest["outputs"]


def test_simulate_dump_state(tmp_path, instance_path):
    out = tmp_path / "res.json"
    dump = tmp_path / "state.bin"
    run_cli(
        "simulate", "--instance", instance_path, "--out", out,
        "--p", 2, "--precision", "fp64", "--dump-state", dump,
    )
    sv = load_statevector(dump)
    inst = load_instance(instance_path)
    want = run_circuit(build_circuit(inst, LrQaoaParams(p=2)), "fp64")
    np.testing.assert_array_equal(sv.amps, want.amps)


@pytest.mark.parametrize(
    "extra",
    [
        ("--mode", "noisy", "--shards", 2),
        ("--mode", "noisy", "--dump-state", "state.bin"),
        ("--epsilon", 0.01),
        ("--trajectories", 5),
        ("--ideal-shots", 100),
        ("--shards", 0),
        ("--shards", -4),
        ("--threads", 2),
    ],
)
def test_simulate_rejects_flags_its_mode_ignores(tmp_path, instance_path, extra, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.iterdir())
    code = run_cli("simulate", "--instance", instance_path, "--out", "res.json", "--p", 1, *extra)
    assert code == 2
    assert set(tmp_path.iterdir()) == before


def test_simulate_rejects_ideal_shots_without_optimum(tmp_path):
    inst = tmp_path / "unsolved.json"
    run_cli("gen", "--n", 6, "--out", inst, "--solve-limit", 4)
    out = tmp_path / "noisy.json"
    code = run_cli(
        "simulate", "--instance", inst, "--out", out, "--p", 1,
        "--mode", "noisy", "--ideal-shots", 50,
    )
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "bench"])
@pytest.mark.parametrize("budget", [0, -5])
def test_memory_bytes_below_one_is_rejected(tmp_path, instance_path, command, budget, capsys):
    out = tmp_path / "out.json"
    if command == "simulate":
        argv = ("simulate", "--instance", instance_path, "--out", out, "--p", 1)
    else:
        argv = ("bench", "--nq", 6, "--shards", 1, "--p", 1, "--out", out)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--memory-bytes", budget)
    assert exc.value.code == 2
    assert "argument --memory-bytes" in capsys.readouterr().err
    assert not out.exists()


def test_replay_ignores_a_budget_in_the_environment(tmp_path, monkeypatch):
    # the budget is argv's or the default, both of which the manifest holds
    inst, out = tmp_path / "inst.json", tmp_path / "r.json"
    assert run_cli("gen", "--n", 10, "--out", inst) == 0
    assert run_cli("simulate", "--instance", inst, "--out", out) == 0
    monkeypatch.setenv("LRQBENCH_MEMORY_BYTES", "100000")
    assert run_cli("replay", tmp_path / "r.json.manifest.json") == 0


BIG = 1 << 64


@pytest.mark.parametrize(
    "extra",
    [
        ("--shots", BIG),
        ("--shots", BIG, "--shards", 2),
        ("--p", BIG),
        ("--mode", "noisy", "--trajectories", BIG),
        ("--mode", "noisy", "--shots", BIG, "--threads", 2),
        ("--mode", "noisy", "--ideal-shots", BIG),
    ],
    ids=["shots", "sharded-shots", "p", "trajectories", "noisy-shots", "ideal-shots"],
)
def test_counts_over_the_budget_exit_3_before_the_work(tmp_path, instance_path, extra, capsys):
    out = tmp_path / "r.json"
    assert run_cli("simulate", "--instance", instance_path, "--out", out, *extra) == 3
    assert "capacity error" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["inst.json", "inst.json.manifest.json"]


def test_ideal_shots_over_the_budget_exit_3_before_the_ensemble(tmp_path, instance_path, monkeypatch):
    # the ideal baseline runs, and is refused, before any trajectory
    def ensemble(*args, **kwargs):
        raise AssertionError("the ensemble ran before the ideal baseline was refused")

    monkeypatch.setattr("lrqbench.cli._sample_ensemble", ensemble)
    out = tmp_path / "r.json"
    argv = ("--mode", "noisy", "--epsilon", 0.01, "--trajectories", 200, "--ideal-shots", BIG)
    assert run_cli("simulate", "--instance", instance_path, "--out", out, *argv) == 3
    assert sorted(path.name for path in tmp_path.iterdir()) == ["inst.json", "inst.json.manifest.json"]


@pytest.mark.parametrize(
    "extra",
    [("--trajectories", BIG), ("--shots", BIG), ("--shots", 10**6, "--memory-bytes", 10**8)],
    ids=["trajectories", "shots", "shots-under-a-set-budget"],
)
def test_ensemble_over_the_budget_exits_3_before_the_ideal_run(tmp_path, instance_path, extra, monkeypatch):
    # the ensemble's own account is checked before the dense ideal baseline runs
    def ideal(*args, **kwargs):
        raise AssertionError("the ideal baseline ran before the ensemble was refused")

    monkeypatch.setattr("lrqbench.cli._clean_state", ideal)
    out = tmp_path / "r.json"
    argv = ("--mode", "noisy", "--epsilon", 0.01, *extra)
    assert run_cli("simulate", "--instance", instance_path, "--out", out, *argv) == 3
    assert sorted(path.name for path in tmp_path.iterdir()) == ["inst.json", "inst.json.manifest.json"]


@pytest.mark.parametrize(
    "command,extra",
    [
        ("simulate", ("--shots", 0)),
        ("simulate", ("--shots", -1)),
        ("simulate", ("--mode", "noisy", "--shots", 0)),
        ("simulate", ("--mode", "noisy", "--shots", -3)),
        ("simulate", ("--mode", "noisy", "--ideal-shots", 0)),
        ("simulate", ("--mode", "noisy", "--trajectories", 0)),
        ("simulate", ("--mode", "noisy", "--trajectories", -2)),
        ("classify", ("--n-s", 0)),
        ("classify", ("--repeats", 0)),
        ("classify", ("--random-pool-size", 0)),
        ("classify", ("--repeats", -1)),
    ],
)
def test_counts_below_one_exit_2_before_anything_is_built(tmp_path, instance_path, command, extra, monkeypatch, capsys):
    qpu = tmp_path / "qpu.json"
    assert run_cli("simulate", "--instance", instance_path, "--out", qpu, "--p", 1) == 0
    before = sorted(tmp_path.iterdir())

    def built(*args, **kwargs):
        raise AssertionError("work was done before the count was refused")

    from lrqbench import cli, engine, noise

    for module, name in [(engine, "_apply_gate_run"), (engine, "_apply_cost_layer"), (engine, "_CostPhase"),
                         (noise, "_apply_gate_run"), (noise, "_apply_cost_layer"), (noise, "_CostPhase"),
                         (cli, "shot_ratios"), (cli, "uniform_sampler")]:
        monkeypatch.setattr(module, name, built)
    if command == "simulate":
        argv = ("simulate", "--instance", instance_path, "--out", tmp_path / "r.json", "--p", 1, *extra)
    else:
        argv = ("classify", "--qpu", qpu, "--instance", instance_path, "--out", tmp_path / "r.json", *extra)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert f"argument {extra[-2]}: must be at least 1" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_bench_depth_over_the_budget_exits_3(tmp_path):
    out = tmp_path / "b.csv"
    assert run_cli("bench", "--nq", 4, "--shards", 1, "--p", BIG, "--out", out) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--n", 65),
        ("gen", "--n", BIG),
        ("bench", "--nq", 65),
        ("bench", "--nq", BIG),
        ("bench", "--mode", "size", "--nq-local", 3, "--nq-range", f"5:{BIG}"),
    ],
)
def test_vertex_counts_beyond_uint64_indices_exit_2(tmp_path, argv, capsys):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", out) == 2
    assert "at most 64" in capsys.readouterr().err
    assert not out.exists()
    # 64 vertices still index: the instance is written, unsolved
    assert run_cli("gen", "--n", 64, "--out", tmp_path / "i64.json") == 0


def test_simulate_noisy_rejects_zero_threads(tmp_path, instance_path):
    out = tmp_path / "noisy.json"
    code = run_cli(
        "simulate", "--instance", instance_path, "--out", out, "--p", 1,
        "--mode", "noisy", "--epsilon", 0.01, "--threads", 0,
    )
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("edge", [[0, 1.7, 0.5], ["a", 1, 0.5], [0, 1, "x"], [0, 1, None], [0, 1, 0.5, 7], "abc"])
def test_simulate_refuses_malformed_edges_before_writing(tmp_path, instance_path, edge, capsys):
    # a fractional vertex id was truncated and ran; the others crashed with exit 1
    data = json.loads(instance_path.read_text())
    data["edges"][0] = edge
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "res.json"
    assert run_cli("simulate", "--instance", bad, "--out", out, "--p", 1) == 2
    assert "edge" in capsys.readouterr().err
    assert list(tmp_path.glob("res.json*")) == []


@pytest.mark.parametrize("sample", [1.5, True, None, 1e30])
def test_classify_refuses_samples_that_are_neither_an_index_nor_bits(tmp_path, instance_path, sample, capsys):
    qpu = tmp_path / "qpu.json"
    qpu.write_text(json.dumps({"bitstrings": ["010101", sample]}))
    out = tmp_path / "report.json"
    assert run_cli("classify", "--qpu", qpu, "--instance", instance_path, "--out", out) == 2
    assert f"sample {sample!r} is neither" in capsys.readouterr().err
    assert list(tmp_path.glob("report.json*")) == []


def test_non_integer_thread_counts_are_rejected(tmp_path, instance_path):
    out = tmp_path / "noisy.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "simulate", "--instance", instance_path, "--out", out, "--p", 1,
            "--mode", "noisy", "--epsilon", 0.01, "--threads", "abc",
        )
    assert exc.value.code == 2
    assert not out.exists()


def test_threads_is_refused_where_nothing_runs_on_threads(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (("hqc", "--n", 10, "--out", "h.json"), ("gen", "--n", 6, "--out", "g.json")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--threads", 2)
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_noisy_thread_counts_write_identical_results(tmp_path):
    from lrqbench import noise

    inst = tmp_path / "inst.json"
    assert run_cli("gen", "--n", 12, "--out", inst, "--seed", 2) == 0
    argv = ("simulate", "--instance", inst, "--p", 2, "--seed", 4, "--mode", "noisy",
            "--epsilon", 0.02, "--trajectories", 13, "--shots", 3)

    def run(out, *extra):
        assert run_cli(*argv, "--out", out, *extra) == 0
        params = json.loads(Path(str(out) + ".manifest.json").read_text())["params"]
        assert "threads_source" not in params
        return out.read_bytes(), params["threads"]

    serial = run(tmp_path / "default.json")
    assert serial[1] == 1
    for threads in (1, 2, 3):
        # a block holds up to 8 states at n=12, capped at each thread's
        # share: 13 trajectories fill none of these evenly
        assert 13 % noise._block_rows(12, 13, threads)
        assert run(tmp_path / f"noisy{threads}.json", "--threads", threads) == (serial[0], threads)


@pytest.mark.parametrize(
    "argv",
    [
        ("hqc", "--n", 10, "--out", "h.json"),
        ("fitnoise", "res.json", "--out", "h.json"),
        ("replay", "res.json.manifest.json"),
    ],
    ids=["hqc", "fitnoise", "replay"],
)
def test_seed_is_refused_where_nothing_draws_random_numbers(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--seed", 7)
    assert exc.value.code == 2
    assert not (tmp_path / "h.json").exists()


@pytest.mark.parametrize("seed", [-1, 1 << 64, "abc"])
@pytest.mark.parametrize("command", ["gen", "simulate", "classify", "bench"])
def test_seeds_outside_64_bits_are_rejected(tmp_path, instance_path, capsys, command, seed):
    # streams take the seed's low 64 bits: 2^64 would alias 0, and -1 2^64 - 1
    out = tmp_path / "out.json"
    argv = {
        "gen": ("gen", "--n", 4),
        "simulate": ("simulate", "--instance", instance_path),
        "classify": ("classify", "--qpu", instance_path, "--instance", instance_path),
        "bench": ("bench", "--nq", 4),
    }[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", out, "--seed", seed)
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err
    assert not out.exists()
    largest = (1 << 64) - 1
    args = [str(a) for a in (*argv, "--out", out, "--seed", largest)]
    assert build_parser().parse_args(args).seed == largest  # the largest seed is accepted


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_simulate_noisy_reports_norm_drift(tmp_path, instance_path, epsilon):
    out = tmp_path / "noisy.json"
    assert run_cli(
        "simulate", "--instance", instance_path, "--out", out, "--p", 2, "--seed", 3,
        "--mode", "noisy", "--epsilon", epsilon, "--trajectories", 20, "--shots", 2,
    ) == 0
    data = json.loads(out.read_text())
    assert data["norm_tolerance"] == 10.0 * 64 * 2.0**-23
    assert 0.0 <= data["norm_drift"] <= data["norm_tolerance"]
    assert (data["paulis_fired"] > 0) == (epsilon > 0.0)


def test_simulate_noisy_zero_eps_matches_noiseless(tmp_path, instance_path):
    clean = tmp_path / "clean.json"
    noisy = tmp_path / "noisy.json"
    run_cli("simulate", "--instance", instance_path, "--out", clean, "--p", 3, "--seed", 8)
    run_cli(
        "simulate", "--instance", instance_path, "--out", noisy, "--p", 3, "--seed", 8,
        "--mode", "noisy", "--epsilon", 0, "--trajectories", 1,
    )
    dc, dn = json.loads(clean.read_text()), json.loads(noisy.read_text())
    assert dn["bitstrings"] == dc["bitstrings"]
    assert dn["mean_r"] == dc["mean_r"]
    assert dn["eps_acc"] == 0.0
    # overlap is the sampled mean against the exact baselines
    from lrqbench import r_overlap

    assert dn["r_ovl"] == pytest.approx(
        r_overlap(dn["mean_r"], dn["r_random"], dn["r_ideal"]), abs=1e-12
    )


def test_simulate_noisy_reports_overlap(tmp_path, instance_path):
    out = tmp_path / "noisy.json"
    run_cli(
        "simulate", "--instance", instance_path, "--out", out, "--p", 3, "--seed", 8,
        "--mode", "noisy", "--epsilon", 0.01, "--trajectories", 25, "--shots", 40,
    )
    data = json.loads(out.read_text())
    assert data["epsilon"] == 0.01
    assert data["trajectories"] == 25
    assert len(data["bitstrings"]) == 25 * 40
    assert data["eps_acc"] == pytest.approx(45 * 0.01)
    assert data["r_random"] < data["r_ideal"] <= 1.0
    assert data["r_ovl"] is not None


def test_simulate_noisy_reports_fired_paulis(tmp_path, instance_path):
    import oracles
    from lrqbench.rng import derive_rng

    counts = {}
    for eps in (0.0, 0.02):
        out = tmp_path / f"noisy{eps}.json"
        run_cli(
            "simulate", "--instance", instance_path, "--out", out, "--p", 3, "--seed", 8,
            "--mode", "noisy", "--epsilon", eps, "--trajectories", 30, "--shots", 2,
        )
        counts[eps] = json.loads(out.read_text())
    assert counts[0.0]["paulis_fired"] == 0
    assert counts[0.0]["zero_fire_trajectories"] == 30
    assert counts[0.0]["paulis_expected"] == 0.0
    # the same per-trajectory draws the ensemble makes; n=6, p=3 has 45 RZZ gates
    root = derive_rng(8, "trajectory", 0)
    fired = [
        int((oracles.jumped(root, t).random(45) < 15.0 / 16.0 * 0.02).sum())
        for t in range(30)
    ]
    data = counts[0.02]
    assert data["paulis_fired"] == sum(fired)
    assert data["zero_fire_trajectories"] == fired.count(0)
    assert 0 < fired.count(0) < 30
    assert data["paulis_expected"] == pytest.approx(15 / 16 * 0.02 * 45 * 30)


@pytest.mark.parametrize(
    "extra,digest",
    [
        ((), "72605c4eaea13b1c9855fd3e71f8afb94d199bc6f203a05006bc5aa98d33ac59"),
        (("--ideal-shots", 200), "30ad4f3c75ac002e2f3eaff70dd71dab04a753154e53ca74dd30272c3cb3724e"),
    ],
    ids=["exact", "ideal-shots"],
)
def test_noisy_result_bytes_are_pinned(tmp_path, extra, digest):
    # r_ideal, from the exact baseline or its shots, and the trajectories'
    # shots, at 0.10.0; the states' bits depend on the BLAS kernel, so the run
    # forces OpenBLAS's Haswell kernel, which every AVX2 host can run
    inst, out = tmp_path / "inst.json", tmp_path / "r.json"
    argv = ("--mode", "noisy", "--epsilon", 0.02, "--trajectories", 10, "--shots", 4, "--seed", 4, *extra)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"), OPENBLAS_CORETYPE="Haswell")
    for command in (("gen", "--n", 8, "--seed", 2, "--out", inst),
                    ("simulate", "--instance", inst, "--out", out, *argv)):
        subprocess.run([sys.executable, "-m", "lrqbench.cli", *map(str, command)], env=env, check=True)
    assert sha256(out) == digest


def test_simulate_ideal_shots_option(tmp_path, instance_path):
    exact = tmp_path / "exact.json"
    sampled = tmp_path / "sampled.json"
    base = (
        "simulate", "--instance", instance_path, "--p", 2, "--seed", 1,
        "--mode", "noisy", "--epsilon", 0.02, "--trajectories", 10,
    )
    run_cli(*base, "--out", exact)
    run_cli(*base, "--out", sampled, "--ideal-shots", 500)
    de, ds = json.loads(exact.read_text()), json.loads(sampled.read_text())
    assert de["r_ideal"] != ds["r_ideal"]
    assert ds["r_ideal"] == pytest.approx(de["r_ideal"], abs=0.05)


def test_classify_end_to_end(tmp_path, instance_path, capsys):
    qpu = tmp_path / "qpu.json"
    ideal = tmp_path / "ideal.json"
    run_cli("simulate", "--instance", instance_path, "--out", qpu, "--p", 3,
            "--shots", 2000, "--seed", 21)
    run_cli("simulate", "--instance", instance_path, "--out", ideal, "--p", 3,
            "--shots", 2000, "--seed", 22)
    report_path = tmp_path / "report.json"
    kde_path = tmp_path / "kde.csv"
    assert run_cli(
        "classify", "--qpu", qpu, "--instance", instance_path, "--out", report_path,
        "--noiseless", ideal, "--seed", 2, "--kde-out", kde_path,
    ) == 0
    report = json.loads(report_path.read_text())
    # a noiseless sample of its own distribution must not look random
    assert report["verdict"] == "noise_tolerant"
    assert report["qpu_shots"] == 2000
    assert report["random_pool_size"] == 10_000
    assert "verdict=noise_tolerant" in capsys.readouterr().out

    lines = kde_path.read_text().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 1 + 512


def test_classify_kde_reuses_the_random_means(tmp_path, instance_path, monkeypatch):
    from lrqbench import stats
    from lrqbench.problem import shot_ratios
    from lrqbench.rng import derive_seed

    qpu = tmp_path / "qpu.json"
    run_cli("simulate", "--instance", instance_path, "--out", qpu, "--p", 2,
            "--shots", 300, "--seed", 5)
    # the curve of 0.3.0, which resampled the random pool a second time
    inst = load_instance(instance_path)
    pool = shot_ratios(inst, stats.uniform_sampler(inst, 2000, 8))
    cfg = stats.ResampleConfig(subsample_size=10, repeats=60,
                               rng_seed=derive_seed(8, "classify", 0))
    grid, density = stats.kde_curve(stats.mean_of_means(pool, cfg).subsample_means)
    want = "x,density\n" + "".join(f"{x:.12g},{d:.12g}\n" for x, d in zip(grid, density))

    calls = []
    real = stats.mean_of_means
    monkeypatch.setattr(stats, "mean_of_means", lambda *a: calls.append(a) or real(*a))
    report_path, kde_path = tmp_path / "report.json", tmp_path / "kde.csv"
    assert run_cli(
        "classify", "--qpu", qpu, "--instance", instance_path, "--out", report_path,
        "--seed", 8, "--random-pool-size", 2000, "--repeats", 60, "--kde-out", kde_path,
    ) == 0
    assert kde_path.read_text() == want
    assert len(calls) == 1  # the random pool only, no noiseless pool given
    assert "random_subsample_means" not in json.loads(report_path.read_text())


def test_classify_uniform_input_is_random(tmp_path, instance_path):
    # hand the classifier a fake result whose bitstrings are uniform draws
    from lrqbench import uniform_sampler

    inst = load_instance(instance_path)
    fake = tmp_path / "uniform.json"
    fake.write_text(json.dumps(
        {"bitstrings": uniform_sampler(inst, 2000, rng_seed=77).bitstrings()}
    ))
    report_path = tmp_path / "report.json"
    assert run_cli(
        "classify", "--qpu", fake, "--instance", instance_path,
        "--out", report_path, "--seed", 2,
    ) == 0
    assert json.loads(report_path.read_text())["verdict"] == "random"


def test_classify_pool_size_guard(tmp_path, instance_path):
    qpu = tmp_path / "qpu.json"
    run_cli("simulate", "--instance", instance_path, "--out", qpu, "--p", 1)
    code = run_cli(
        "classify", "--qpu", qpu, "--instance", instance_path,
        "--out", tmp_path / "r.json", "--random-pool-size", 50, "--n-s", 10,
    )
    assert code == 2


def test_classify_refuses_a_density_of_one_repeat_before_writing(tmp_path, instance_path, capsys):
    # the density needs two random subsample means, and one repeat gives one
    qpu = tmp_path / "qpu.json"
    assert run_cli("simulate", "--instance", instance_path, "--out", qpu, "--p", 1) == 0
    before = sorted(tmp_path.iterdir())
    code = run_cli(
        "classify", "--qpu", qpu, "--instance", instance_path, "--out", tmp_path / "r.json",
        "--repeats", 1, "--kde-out", tmp_path / "kde.csv",
    )
    assert code == 2
    assert "--kde-out needs at least 2 repeats" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "counts",
    [
        ("--random-pool-size", BIG),
        ("--repeats", BIG),
        ("--random-pool-size", 10**12, "--n-s", 10**11),
        # 2 * 10^8 means fit the budget alone, and not with their density
        ("--repeats", 2 * 10**8, "--kde-out", "kde.csv"),
    ],
    ids=["pool", "repeats", "pool-and-subsample", "density"],
)
def test_classify_counts_over_the_budget_exit_3_before_the_pool(tmp_path, instance_path, counts, capsys):
    qpu = tmp_path / "qpu.json"
    assert run_cli("simulate", "--instance", instance_path, "--out", qpu, "--p", 1) == 0
    before = sorted(tmp_path.iterdir())
    argv = [tmp_path / a if a == "kde.csv" else a for a in counts]
    code = run_cli("classify", "--qpu", qpu, "--instance", instance_path, "--out", tmp_path / "r.json", *argv)
    assert code == 3
    assert "capacity error" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_classify_memory_bytes_is_its_budget(tmp_path, instance_path, capsys):
    # the refusal names _resample_bytes; one byte under it exits 3 with no
    # report or manifest, and the need itself runs
    from lrqbench.stats import _resample_bytes

    qpu, out = tmp_path / "qpu.json", tmp_path / "r.json"
    assert run_cli("simulate", "--instance", instance_path, "--out", qpu, "--p", 1) == 0
    argv = ("classify", "--qpu", qpu, "--instance", instance_path, "--out", out, "--repeats", 50)
    capsys.readouterr()
    assert run_cli(*argv, "--memory-bytes", 1) == 3
    need = int(re.search(r"needs (\d+) bytes", capsys.readouterr().err).group(1))
    assert need == _resample_bytes(load_instance(instance_path).num_vertices, 10_000, 50, False)
    before = sorted(tmp_path.iterdir())
    assert run_cli(*argv, "--memory-bytes", need - 1) == 3
    assert sorted(tmp_path.iterdir()) == before
    assert run_cli(*argv, "--memory-bytes", need) == 0
    assert out.exists() and Path(f"{out}.manifest.json").exists()


def test_fitnoise_pipeline(tmp_path, instance_path, capsys):
    results = []
    for i, eps in enumerate((0.002, 0.01, 0.03)):
        out = tmp_path / f"noisy{i}.json"
        run_cli(
            "simulate", "--instance", instance_path, "--out", out, "--p", 3,
            "--seed", 5, "--mode", "noisy", "--epsilon", eps,
            "--trajectories", 150, "--shots", 1,
        )
        results.append(out)
    clean = tmp_path / "clean.json"
    run_cli("simulate", "--instance", instance_path, "--out", clean, "--p", 3)

    fit_path = tmp_path / "fit.json"
    assert run_cli("fitnoise", *results, clean, "--out", fit_path) == 0
    captured = capsys.readouterr()
    assert "has no overlap ratio" in captured.err
    assert "k0=" in captured.out
    fit = json.loads(fit_path.read_text())
    assert fit["k0"] > 0.0
    assert fit["n_skipped_files"] == 1
    assert len(fit["points"]) == 3
    for pt in fit["points"]:
        assert set(pt) == {"eps_acc", "r_ovl", "log2_residual"}


def test_fitnoise_needs_points(tmp_path, instance_path):
    clean = tmp_path / "clean.json"
    run_cli("simulate", "--instance", instance_path, "--out", clean, "--p", 1)
    assert run_cli("fitnoise", clean, "--out", tmp_path / "fit.json") == 2


def test_hqc_reports_published_cost(tmp_path, capsys):
    out = tmp_path / "hqc.json"
    assert run_cli("hqc", "--n", 40, "--p", 3, "--shots", 10, "--out", out) == 0
    assert "hqc=52.52" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert (data["n_1q"], data["n_2q"]) == (160, 2340)
    assert data["hqc"] == pytest.approx(52.52)


def test_bench_strong(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run_cli(
        "bench", "--mode", "strong", "--nq", 7, "--shards", "1,2",
        "--p", 1, "--out", out, "--repeat", 2,
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("nq,p,num_shards")
    assert len(lines) > 1
    text = capsys.readouterr().out
    assert "nq=7 shards=1" in text and "median=" in text


def test_bench_size(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli(
        "bench", "--mode", "size", "--nq-range", "6:7", "--nq-local", 5,
        "--p", 1, "--out", out,
    ) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "mode, argv, named",
    [
        ("strong", ("--nq", 6, "--shards", "1,2", "--nq-local", 3, "--nq-range", "4:5"), "--nq-range, --nq-local"),
        ("size", ("--nq-range", "6:7", "--nq-local", 5, "--nq", 12, "--shards", 8), "--nq, --shards"),
    ],
)
def test_bench_rejects_flags_its_mode_ignores(tmp_path, capsys, mode, argv, named):
    out = tmp_path / "bench.csv"
    assert run_cli("bench", "--mode", mode, *argv, "--p", 1, "--out", out) == 2
    assert f"{named} not used in --mode {mode}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bench_strong_sweeps_one_two_four_shards_by_default(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli("bench", "--nq", 6, "--p", 1, "--out", out) == 0
    rows = out.read_text().splitlines()[1:]
    assert sorted({int(row.split(",")[2]) for row in rows}) == [1, 2, 4]


def test_replay_reproduces_output(tmp_path):
    out = tmp_path / "inst.json"
    run_cli("gen", "--n", 6, "--out", out, "--seed", 12)
    first = sha256(out)
    out.unlink()
    assert run_cli("replay", tmp_path / "inst.json.manifest.json") == 0
    assert sha256(out) == first


def test_replay_warns_on_version_mismatch(tmp_path, capsys):
    out = tmp_path / "inst.json"
    run_cli("gen", "--n", 6, "--out", out, "--seed", 12)
    manifest = tmp_path / "inst.json.manifest.json"
    assert run_cli("replay", manifest) == 0
    assert "warning" not in capsys.readouterr().err
    data = json.loads(manifest.read_text())
    data["version"] = "0.1.0"
    manifest.write_text(json.dumps(data))
    assert run_cli("replay", manifest) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "0.1.0" in err


def test_replay_warns_on_another_blas_fingerprint(tmp_path, capsys):
    from lrqbench.cli import _blas_fingerprint

    out = tmp_path / "inst.json"
    run_cli("gen", "--n", 6, "--out", out, "--seed", 12)
    manifest = tmp_path / "inst.json.manifest.json"
    data = json.loads(manifest.read_text())
    assert re.fullmatch("[0-9a-f]{16}", data["blas_fingerprint"])
    assert data["blas_fingerprint"] == _blas_fingerprint()
    data["blas_fingerprint"] = "0123456789abcdef"
    manifest.write_text(json.dumps(data))
    assert run_cli("replay", manifest) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "0123456789abcdef" in err and _blas_fingerprint() in err


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blas_fingerprint_reads_the_real_products_runs_make(monkeypatch, dtype):
    # a BLAS whose real product of the engine's shape rounds one ulp higher
    # gives another fingerprint; a complex product, which no CLI run calls, is not read
    from lrqbench import cli

    fingerprint = cli._blas_fingerprint.__wrapped__  # uncached
    before, real = fingerprint(), np.matmul
    assert before == cli._blas_fingerprint()

    def product(a, b, *args, off=dtype, **kwargs):
        out = real(a, b, *args, **kwargs)
        return np.nextafter(out, np.inf) if out.dtype == off else out

    monkeypatch.setattr(np, "matmul", product)
    assert fingerprint() != before
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: product(*args, off=np.complex64, **kwargs))
    assert fingerprint() == before


@pytest.mark.parametrize("change", ["tampered", "deleted"])
def test_replay_checks_its_inputs(tmp_path, instance_path, capsys, change):
    out = tmp_path / "r.json"
    assert run_cli("simulate", "--instance", instance_path, "--p", 1, "--out", out) == 0
    out.unlink()
    if change == "tampered":
        data = json.loads(instance_path.read_text())
        data["edges"][0][2] += 0.5
        instance_path.write_text(json.dumps(data))
    else:
        instance_path.unlink()
    capsys.readouterr()
    assert run_cli("replay", tmp_path / "r.json.manifest.json") == 2
    assert f"input {instance_path}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("recorded", ["digest", "schema"])
def test_replay_checks_its_outputs(tmp_path, instance_path, capsys, recorded):
    out = tmp_path / "r.json"
    assert run_cli(
        "simulate", "--instance", instance_path, "--p", 1, "--shards", 2, "--out", out
    ) == 0
    manifest = tmp_path / "r.json.manifest.json"
    # the timing CSV's bytes change from run to run; its header and row count do not
    assert run_cli("replay", manifest) == 0
    data = json.loads(manifest.read_text())
    if recorded == "digest":
        changed = str(out)
        data["outputs"][changed] = "0" * 64
    else:
        changed = str(tmp_path / "r.timing.csv")
        data["compared_by_schema"][changed]["rows"] += 1
    manifest.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("replay", manifest) == 2
    assert f"output {changed} does not match" in capsys.readouterr().err


def file_writing_commands(d: Path) -> list[tuple[tuple, list[Path]]]:
    """Every subcommand that writes files, as (argv, outputs)."""
    inst, ideal, state = d / "inst.json", d / "ideal.json", d / "state.bin"
    noisy = [d / "noisy0.json", d / "noisy1.json"]
    sim = ("simulate", "--instance", inst, "--p", 1)
    return [
        (("gen", "--n", 6, "--out", inst, "--seed", 3), [inst]),
        ((*sim, "--out", ideal, "--dump-state", state), [ideal, state]),
        ((*sim, "--out", d / "sharded.json", "--shards", 2),
         [d / "sharded.json", d / "sharded.timing.csv"]),
        *(
            ((*sim, "--out", path, "--mode", "noisy", "--epsilon", eps, "--trajectories", 4),
             [path])
            for path, eps in zip(noisy, (0.01, 0.05))
        ),
        (("classify", "--qpu", noisy[0], "--instance", inst, "--noiseless", ideal,
          "--out", d / "report.json", "--kde-out", d / "kde.csv",
          "--random-pool-size", 200, "--repeats", 20),
         [d / "report.json", d / "kde.csv"]),
        (("fitnoise", *noisy, "--out", d / "fit.json"), [d / "fit.json"]),
        (("bench", "--nq", 6, "--p", 1, "--shards", "1,2", "--out", d / "bench.csv"),
         [d / "bench.csv"]),
        (("hqc", "--n", 10, "--out", d / "hqc.json"), [d / "hqc.json"]),
    ]


def test_rerunning_every_command_replaces_its_outputs(tmp_path):
    commands = file_writing_commands(tmp_path)
    paths = [p for _, outs in commands for p in outs]
    paths += [Path(f"{outs[0]}.manifest.json") for _, outs in commands]
    mask = os.umask(0)
    os.umask(mask)

    def comparable(path: Path):
        """The bytes that stay the same from run to run."""
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(path.read_text())
            del manifest["timestamp_utc"]
            for timing in manifest.get("compared_by_schema", {}):
                del manifest["outputs"][timing]
            return manifest
        return None if path.name in ("sharded.timing.csv", "bench.csv") else path.read_bytes()

    runs = []
    for _ in range(2):
        for argv, _ in commands:
            assert run_cli(*argv) == 0, argv
        runs.append({p: (p.stat().st_ino, comparable(p)) for p in paths})
    for path in paths:
        # a new inode: the old file was replaced, never truncated in place
        assert runs[1][path][0] != runs[0][path][0], path
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~mask, path
        assert runs[1][path][1] == runs[0][path][1], path
    assert list(tmp_path.glob(".*.tmp")) == []


def test_replay_rejects_garbage(tmp_path):
    bogus = tmp_path / "m.json"
    bogus.write_text("{}")
    assert run_cli("replay", bogus) == 2


def test_exit_code_validation(tmp_path):
    assert run_cli("gen", "--n", 1, "--out", tmp_path / "x.json") == 2


def test_exit_code_capacity(tmp_path, instance_path):
    code = run_cli(
        "simulate", "--instance", instance_path, "--out", tmp_path / "r.json",
        "--memory-bytes", 64,
    )
    assert code == 3


def test_missing_input_is_validation_error(tmp_path):
    code = run_cli(
        "simulate", "--instance", tmp_path / "absent.json", "--out", tmp_path / "r.json"
    )
    assert code == 2


def test_exit_code_runtime_state_error(tmp_path):
    # a structurally valid but unsolved instance cannot be classified:
    # the failure is in pipeline state, not in the arguments
    inst = tmp_path / "unsolved.json"
    run_cli("gen", "--n", 6, "--out", inst, "--solve-limit", 4)
    qpu = tmp_path / "qpu.json"
    run_cli("simulate", "--instance", inst, "--out", qpu, "--p", 1)
    code = run_cli(
        "classify", "--qpu", qpu, "--instance", inst, "--out", tmp_path / "r.json"
    )
    assert code == 4


@pytest.mark.parametrize("argv", [
    ("classify", "--qpu", "qpu.json", "--instance", "inst.json", "--out", "report.json", "--kde-out", "nodir/kde.csv"),
    ("simulate", "--instance", "inst.json", "--out", "sim.json", "--p", 1, "--dump-state", "nodir/state.bin"),
    ("simulate", "--instance", "inst.json", "--out", "nodir/sim.json", "--p", 1, "--dump-state", "state.bin"),
])
def test_an_output_without_its_directory_exits_4_writing_nothing(tmp_path, monkeypatch, capsys, argv):
    # checked before the command runs, so no earlier output is left behind
    monkeypatch.chdir(tmp_path)
    assert run_cli("gen", "--n", 6, "--out", "inst.json", "--seed", 3) == 0
    assert run_cli("simulate", "--instance", "inst.json", "--out", "qpu.json", "--p", 1) == 0
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert run_cli(*argv) == 4
    assert "nodir" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


CLS = ("classify", "--qpu", "qpu.json", "--instance", "inst.json")


@pytest.mark.parametrize("argv", [
    # an output that is an input
    ("simulate", "--instance", "inst.json", "--out", "inst.json"),
    ("simulate", "--instance", "inst.json", "--out", "s.json", "--dump-state", "inst.json"),
    ("simulate", "--instance", "x.timing.csv", "--out", "x.json", "--shards", 2),
    ("simulate", "--instance", "x.json.manifest.json", "--out", "x.json"),
    ("simulate", "--instance", "inst.json", "--out", "link.json"),  # link.json -> inst.json
    (*CLS, "--out", "qpu.json"),
    (*CLS, "--out", "inst.json"),
    (*CLS, "--noiseless", "nl.json", "--out", "nl.json"),
    (*CLS, "--out", "r.json", "--kde-out", "qpu.json"),
    (*CLS, "--out", "r.json", "--kde-out", "inst.json"),
    (*CLS, "--noiseless", "nl.json", "--out", "r.json", "--kde-out", "nl.json"),
    ("classify", "--qpu", "x.json.manifest.json", "--instance", "inst.json", "--out", "x.json"),
    ("fitnoise", "qpu.json", "--out", "qpu.json"),
    ("fitnoise", "x.json.manifest.json", "--out", "x.json"),
    # an output that is another output
    ("simulate", "--instance", "inst.json", "--out", "s.json", "--dump-state", "s.json"),
    ("simulate", "--instance", "inst.json", "--out", "s.json", "--shards", 2, "--dump-state", "s.timing.csv"),
    ("simulate", "--instance", "inst.json", "--out", "s.json", "--dump-state", "s.json.manifest.json"),
    (*CLS, "--out", "r.json", "--kde-out", "r.json"),
    (*CLS, "--out", "r.json", "--kde-out", "r.json.manifest.json"),
])
def test_an_output_that_is_an_input_or_another_output_exits_2_writing_nothing(tmp_path, monkeypatch, argv):
    # checked before the command runs, through symlinks, so no input is
    # overwritten; every input is valid (a noisy run stands for the device,
    # so fitnoise finds its overlap), so only the collision stops a command
    monkeypatch.chdir(tmp_path)
    assert run_cli("gen", "--n", 6, "--out", "inst.json", "--seed", 3) == 0
    noisy = ("--mode", "noisy", "--epsilon", 0.05, "--trajectories", 2, "--p", 1)
    assert run_cli("simulate", "--instance", "inst.json", "--out", "qpu.json", *noisy) == 0
    os.symlink("inst.json", "link.json")
    os.symlink("qpu.json", "nl.json")
    for name in ("x.timing.csv", "x.json.manifest.json"):
        Path(name).write_bytes(Path("inst.json" if "simulate" in argv else "qpu.json").read_bytes())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run_cli(*argv) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert project["project"]["version"] == __version__


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("lrqbench ")


def zero_weight_instance(path: Path) -> Path:
    edges = [[i, j, 0.0] for i in range(4) for j in range(i + 1, 4)]
    path.write_text(json.dumps(
        {"n": 4, "seed": None, "edges": edges, "optimal": {"bitstring": "0000", "value": 0.0}}
    ))
    return path


@pytest.mark.parametrize("argv", [
    ("simulate", "--p", 1),
    ("simulate", "--p", 1, "--mode", "noisy", "--epsilon", 0.01, "--trajectories", 2),
    ("classify", "--qpu", "qpu.json"),
])
def test_zero_optimum_exits_2_without_a_result(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    inst = zero_weight_instance(tmp_path / "zero.json")
    Path("qpu.json").write_text(json.dumps({"bitstrings": ["0101"] * 20}))
    assert run_cli(*argv, "--instance", inst, "--out", "res.json") == 2
    assert "not a positive number" in capsys.readouterr().err
    assert not Path("res.json").exists()


@pytest.mark.parametrize("command", ["simulate", "classify"])
def test_a_tampered_optimum_is_rejected_at_load(tmp_path, monkeypatch, capsys, command):
    from lrqbench import cli

    inst = tmp_path / "inst.json"
    assert run_cli("gen", "--n", 12, "--out", inst, "--seed", 4) == 0
    data = json.loads(inst.read_text())
    data["optimal"]["value"] = 999.0
    inst.write_text(json.dumps(data))
    qpu = tmp_path / "qpu.json"
    qpu.write_text(json.dumps({"bitstrings": ["0" * 12] * 20}))
    runs = []
    monkeypatch.setattr(cli, "run_circuit", lambda *args, **kwargs: runs.append(args))
    argv = ("simulate", "--p", 1) if command == "simulate" else ("classify", "--qpu", qpu)
    assert run_cli(*argv, "--instance", inst, "--out", tmp_path / "res.json") == 2
    assert "contradicts its bitstring" in capsys.readouterr().err
    assert runs == []
    assert list(tmp_path.glob("res.json*")) == []


def test_each_command_builds_one_instance_cut(tmp_path, monkeypatch):
    # cost layers bind CutDiagonal in circuit, so only the instance's cut counts
    from lrqbench import problem

    built = []

    class Counting(problem.CutDiagonal):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(problem, "CutDiagonal", Counting)
    inst, qpu, ideal = tmp_path / "inst.json", tmp_path / "qpu.json", tmp_path / "ideal.json"
    sim = ("simulate", "--instance", inst, "--p", 2, "--shots", 200)
    commands = [
        ("gen", "--n", 8, "--out", inst),
        (*sim, "--out", ideal),
        (*sim, "--out", tmp_path / "sharded.json", "--shards", 2),
        (*sim, "--out", qpu, "--mode", "noisy", "--epsilon", 0.01, "--trajectories", 3),
        ("classify", "--qpu", qpu, "--instance", inst, "--noiseless", ideal,
         "--out", tmp_path / "report.json"),
    ]
    for argv in commands:
        built.clear()
        assert run_cli(*argv) == 0
        assert len(built) == 1, argv[0]


def test_main_keeps_one_parser_per_process():
    assert build_parser() is build_parser()


def test_a_noisy_run_leaves_no_parsed_state_for_the_next_call(tmp_path, instance_path):
    # the noisy run sets args.threads; a noiseless run refuses --threads
    noisy = ("--mode", "noisy", "--epsilon", 0.05, "--trajectories", 4)
    assert run_cli("simulate", "--instance", instance_path, "--out", tmp_path / "a.json", *noisy) == 0
    assert run_cli("simulate", "--instance", instance_path, "--out", tmp_path / "b.json") == 0
    assert run_cli("simulate", "--instance", instance_path, "--out", tmp_path / "c.json", *noisy) == 0
    assert json.loads((tmp_path / "c.json.manifest.json").read_text())["params"]["threads"] == 1


def test_version_and_help_exit_0_after_earlier_calls(tmp_path, instance_path, capsys):
    assert run_cli("simulate", "--instance", instance_path, "--out", tmp_path / "r.json") == 0
    assert run_cli("hqc", "--n", 10) == 0
    capsys.readouterr()
    for argv, shown in [(("--version",), "lrqbench "), (("--help",), "usage: lrqbench"),
                        (("simulate", "--help"), "usage: lrqbench simulate")]:
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(shown)


# twenty calls of every command, run in one process and each in a fresh
# interpreter: errors (exit 2 and 3) and nested calls (replay) included
MIXED_CALLS = [
    ("gen", "--n", "6", "--seed", "3", "--out", "inst.json"),
    ("gen", "--n", "5", "--seed", "1", "--out", "inst5.json"),
    ("simulate", "--instance", "inst.json", "--out", "sim.json", "--shots", "200"),
    ("simulate", "--instance", "inst.json", "--out", "noisy.json", "--mode", "noisy",
     "--epsilon", "0.05", "--trajectories", "8", "--threads", "2"),
    ("simulate", "--instance", "inst.json", "--out", "plain.json", "--p", "2"),
    ("simulate", "--instance", "inst5.json", "--out", "s5.json", "--precision", "fp64",
     "--dump-state", "s5.bin"),
    ("simulate", "--instance", "inst.json", "--out", "noisy2.json", "--mode", "noisy",
     "--epsilon", "0.2", "--trajectories", "5", "--ideal-shots", "50", "--seed", "4"),
    ("simulate", "--instance", "inst.json", "--out", "noisy3.json", "--mode", "noisy",
     "--epsilon", "0.01", "--trajectories", "6", "--precision", "fp64", "--shots", "3"),
    ("simulate", "--instance", "inst.json", "--out", "bad.json", "--threads", "2"),
    ("simulate", "--instance", "inst.json", "--out", "over.json", "--memory-bytes", "1000"),
    ("classify", "--qpu", "noisy.json", "--instance", "inst.json", "--noiseless", "sim.json",
     "--out", "report.json", "--kde-out", "kde.csv"),
    ("classify", "--qpu", "plain.json", "--instance", "inst.json", "--out", "report2.json",
     "--repeats", "30", "--seed", "2"),
    ("fitnoise", "noisy.json", "noisy2.json", "noisy3.json", "--out", "fit.json"),
    ("hqc", "--n", "12", "--out", "hqc.json"),
    ("hqc", "--n", "56", "--p", "5"),
    ("replay", "sim.json.manifest.json"),
    ("replay", "noisy.json.manifest.json"),
    ("gen", "--n", "6", "--seed", "3", "--out", "inst.json"),
    ("simulate", "--instance", "inst5.json", "--out", "noisy5.json", "--mode", "noisy",
     "--epsilon", "0.1", "--trajectories", "4", "--threads", "3"),
    ("fitnoise", "plain.json", "--out", "nofit.json"),
]


def written(directory: Path) -> dict:
    """Every file's bytes, each manifest's without its timestamp."""
    files = {}
    for path in sorted(directory.iterdir()):
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(path.read_text())
            del manifest["timestamp_utc"]
            files[path.name] = json.dumps(manifest, sort_keys=True).encode()
        else:
            files[path.name] = path.read_bytes()
    return files


def test_mixed_calls_in_one_process_match_fresh_interpreters(tmp_path, monkeypatch):
    one, fresh = tmp_path / "one", tmp_path / "fresh"
    one.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(one)
    in_process = []
    for argv in MIXED_CALLS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        in_process.append((code, out.getvalue(), err.getvalue()))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    for argv, got in zip(MIXED_CALLS, in_process):
        run = subprocess.run(
            [sys.executable, "-m", "lrqbench.cli", *argv], cwd=fresh, env=env, capture_output=True, text=True
        )
        assert (run.returncode, run.stdout, run.stderr) == got, argv
    assert {code for code, _, _ in in_process} == {0, 2, 3}
    assert written(one) == written(fresh)


def test_each_simulate_builds_each_cost_layer_phase_once(tmp_path, monkeypatch):
    # the noisy ensemble and its ideal baseline share one phase per cost layer
    from lrqbench import engine

    built = []
    real = engine._CostPhase.__init__

    def counting(self, layer):
        built.append(layer)
        real(self, layer)

    monkeypatch.setattr(engine._CostPhase, "__init__", counting)
    inst, unsolved = tmp_path / "inst.json", tmp_path / "unsolved.json"
    assert run_cli("gen", "--n", 6, "--out", inst) == 0
    assert run_cli("gen", "--n", 6, "--out", unsolved, "--solve-limit", 4) == 0
    noisy = ("--mode", "noisy", "--epsilon", 0.05, "--trajectories", 6)
    for p in (1, 3):
        for instance, extra in [
            (inst, ()),
            (inst, noisy),
            (inst, (*noisy, "--ideal-shots", 40)),
            (inst, (*noisy, "--threads", 2)),
            (unsolved, noisy),
        ]:
            built.clear()
            out = tmp_path / "r.json"
            assert run_cli("simulate", "--instance", instance, "--out", out, "--p", p, *extra) == 0
            assert len(built) == p, extra


@pytest.mark.parametrize("ideal", [(), ("--ideal-shots", 20_000)], ids=["exact", "ideal-shots"])
@pytest.mark.parametrize("n", [14, 16, 18])
def test_noisy_simulate_peaks_within_its_count(tmp_path, capsys, n, ideal):
    # the ensemble's count, or with many ideal shots the baseline's, which
    # runs on the ensemble's phases: all p of them are alive through it
    from lrqbench.circuit import gate_counts
    from lrqbench.engine import Precision, _gate_list_bytes, state_bytes

    inst = tmp_path / "inst.json"
    assert run_cli("gen", "--n", n, "--out", inst, "--seed", 2) == 0
    argv = ("simulate", "--instance", inst, "--out", tmp_path / "r.json", "--mode", "noisy",
            "--epsilon", 0.05, "--trajectories", 2, "--shots", 10, "--seed", 3, *ideal)
    # the state and the gate list alone, far below the run's whole need
    first = state_bytes(n, Precision.FP32) + _gate_list_bytes(sum(gate_counts(n, 3)))
    capsys.readouterr()
    assert run_cli(*argv, "--memory-bytes", first) == 3
    need = int(re.search(r"needs (\d+) bytes", capsys.readouterr().err).group(1))
    tracemalloc.start()
    try:
        code = run_cli(*argv, "--memory-bytes", need)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= need
    assert run_cli(*argv, "--memory-bytes", need - 1) == 3


NOISY = ("--mode", "noisy", "--epsilon", 0.05, "--trajectories", 20, "--shots", 10)


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", 18, "--precision", "fp32"),
        ("simulate", "--n", 18, "--precision", "fp64"),
        ("simulate", "--n", 18, "--precision", "fp32", "--dump-state", "state.bin"),
        ("simulate", "--n", 18, "--precision", "fp64", "--dump-state", "state.bin"),
        ("simulate", "--n", 14, "--shards", 2),
        ("simulate", "--n", 12, *NOISY, "--threads", 1),
        ("simulate", "--n", 12, *NOISY, "--threads", 2),
        ("simulate", "--n", 12, *NOISY, "--threads", 1, "--ideal-shots", 5000),
        ("simulate", "--n", 12, *NOISY, "--threads", 2, "--ideal-shots", 5000),
        ("bench", "--nq", 14, "--shards", "1,2"),
        ("bench", "--mode", "size", "--nq-range", "4:12", "--nq-local", 4),
        ("bench", "--nq", 6, "--shards", "1", "--p", 1, "--repeat", 1000),
    ],
    ids=["fp32", "fp64", "dump-fp32", "dump-fp64", "shards", "noisy-t1", "noisy-t2",
         "noisy-ideal-t1", "noisy-ideal-t2", "bench-strong", "bench-size", "bench-rows"],
)
def test_one_refusal_names_the_whole_need(tmp_path, monkeypatch, capsys, argv):
    # the first refusal names N; the run is refused at N - 1 with nothing
    # written, and runs at N within it
    monkeypatch.chdir(tmp_path)
    command, _, n, *rest = argv
    if command == "simulate":
        assert run_cli("gen", "--n", n, "--out", "inst.json", "--seed", 2) == 0
        argv = ("simulate", "--instance", "inst.json", "--out", "r.json", *rest)
    else:
        argv = (*argv, "--out", "b.csv")
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run_cli(*argv, "--memory-bytes", 1) == 3
    need = int(re.search(r"needs (\d+) bytes", capsys.readouterr().err).group(1))
    assert run_cli(*argv, "--memory-bytes", need - 1) == 3
    assert f"needs {need} bytes" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    tracemalloc.start()
    try:
        code = run_cli(*argv, "--memory-bytes", need)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= need


def test_bench_need_counts_the_timing_rows_of_every_run(tmp_path, capsys):
    # each of the 999 more runs of both plans keeps a row per gate until the
    # CSV is written; one run, the default, fits the default budget
    from lrqbench.circuit import gate_counts
    from lrqbench.sharded import _timing_bytes

    argv = ("bench", "--nq", 6, "--shards", "1,2", "--out", tmp_path / "b.csv")
    needs = []
    for repeat in (1, 1000):
        capsys.readouterr()
        assert run_cli(*argv, "--repeat", repeat, "--memory-bytes", 1) == 3
        needs.append(int(re.search(r"needs (\d+) bytes", capsys.readouterr().err).group(1)))
    assert needs[1] - needs[0] == _timing_bytes(999 * 2 * sum(gate_counts(6, 3)))
    assert run_cli(*argv) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--instance", "inst.json", "--out", "r.json"),
        ("simulate", "--instance", "inst.json", "--out", "r.json", "--shards", 2),
        ("simulate", "--instance", "inst.json", "--out", "r.json", *NOISY),
        ("bench", "--nq", 8, "--shards", "1,2", "--out", "b.csv"),
        ("bench", "--mode", "size", "--nq-range", "4:8", "--nq-local", 4, "--out", "b.csv"),
    ],
    ids=["noiseless", "sharded", "noisy", "bench-strong", "bench-size"],
)
def test_over_the_budget_is_refused_before_the_build(tmp_path, monkeypatch, capsys, argv):
    from lrqbench import cli, engine, noise, sharded

    monkeypatch.chdir(tmp_path)
    assert run_cli("gen", "--n", 8, "--out", "inst.json") == 0
    before = sorted(tmp_path.iterdir())

    def built(*args, **kwargs):
        raise AssertionError("built before the run was refused")

    for module, name in [(cli, "build_circuit"), (sharded, "build_circuit"), (engine, "_layer_plan"),
                         (noise, "_layer_plan"), (sharded, "_layer_plan")]:
        monkeypatch.setattr(module, name, built)
    capsys.readouterr()
    assert run_cli(*argv, "--memory-bytes", 100_000) == 3
    assert "capacity error" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_hqc_refuses_more_measured_qubits_than_the_circuit_has(tmp_path, capsys):
    out = tmp_path / "hqc.json"
    assert run_cli("hqc", "--n", 8, "--n-m", 100, "--out", out) == 2
    captured = capsys.readouterr()
    assert "--n-m 100" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
    assert run_cli("hqc", "--n", 8, "--n-m", 8, "--out", out) == 0
