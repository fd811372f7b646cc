import hashlib
import json
import os
import stat
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
from lrqbench.cli import main


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
    assert run_cli(*argv, "--memory-bytes", budget) == 2
    assert "--memory-bytes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "2.5", "0", "-5"])
def test_bad_memory_budget_variable_is_rejected(tmp_path, instance_path, value, monkeypatch, capsys):
    monkeypatch.setenv("LRQBENCH_MEMORY_BYTES", value)
    out = tmp_path / "r.json"
    assert run_cli("simulate", "--instance", instance_path, "--out", out, "--p", 1) == 2
    assert "LRQBENCH_MEMORY_BYTES" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", [-3, 0])
def test_gen_rejects_thread_counts_below_one(tmp_path, threads):
    out = tmp_path / "inst.json"
    assert run_cli("gen", "--n", 6, "--out", out, "--threads", threads) == 2
    assert not out.exists()


def test_simulate_noisy_rejects_zero_threads(tmp_path, instance_path):
    out = tmp_path / "noisy.json"
    code = run_cli(
        "simulate", "--instance", instance_path, "--out", out, "--p", 1,
        "--mode", "noisy", "--epsilon", 0.01, "--threads", 0,
    )
    assert code == 2
    assert not out.exists()


def test_non_integer_thread_counts_are_rejected(tmp_path, monkeypatch):
    out = tmp_path / "inst.json"
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--n", 6, "--out", out, "--threads", "abc")
    assert exc.value.code == 2
    monkeypatch.setenv("LRQBENCH_THREADS", "abc")
    assert run_cli("gen", "--n", 6, "--out", out) == 2
    assert not out.exists()


def test_threads_is_refused_where_nothing_runs_on_threads(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("hqc", "--n", 10, "--out", tmp_path / "h.json", "--threads", 2)
    assert exc.value.code == 2
    assert not (tmp_path / "h.json").exists()


def test_manifest_records_the_resolved_thread_count(tmp_path, instance_path, monkeypatch):
    def recorded(out):
        params = json.loads(Path(str(out) + ".manifest.json").read_text())["params"]
        return params["threads"], params["threads_source"]

    monkeypatch.setenv("LRQBENCH_THREADS", "2")
    noisy = tmp_path / "noisy.json"
    assert run_cli(
        "simulate", "--instance", instance_path, "--out", noisy, "--p", 1,
        "--mode", "noisy", "--epsilon", 0.01, "--trajectories", 4,
    ) == 0
    assert recorded(noisy) == (2, "LRQBENCH_THREADS")
    inst = tmp_path / "inst.json"
    assert run_cli("gen", "--n", 6, "--out", inst, "--threads", 3) == 0
    assert recorded(inst) == (3, "--threads")
    monkeypatch.delenv("LRQBENCH_THREADS")
    assert run_cli("gen", "--n", 6, "--out", inst) == 0
    assert recorded(inst) == (1, "default")


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
    fired = [
        int((derive_rng(8, "trajectory", t).random(45) < 15.0 / 16.0 * 0.02).sum())
        for t in range(30)
    ]
    data = counts[0.02]
    assert data["paulis_fired"] == sum(fired)
    assert data["zero_fire_trajectories"] == fired.count(0)
    assert 0 < fired.count(0) < 30
    assert data["paulis_expected"] == pytest.approx(15 / 16 * 0.02 * 45 * 30)


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
