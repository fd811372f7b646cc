"""A seeded fuzz over the command line at n <= 6.

Every argv must exit 0, 2, 3 or 4, without raising and without a numeric
RuntimeWarning; a non-zero exit must leave no output and no ``.tmp``; an
exit-0 run must write no NaN or Infinity, and its manifest must replay.

Flags take valid values and the edge values 0, -1, 2^64, 1e308, 5e307,
nan and inf.  2^64 goes to every flag that bounds its value (seeds, the
memory budget, the shard, thread, local-qubit, solve and subsample
limits, and ``hqc``'s counts, which only enter a formula), and to the
counts that set an amount of memory (vertices, depth, shots,
trajectories, ideal shots, ``classify``'s pool size and repeats, and the
top of ``bench --nq-range``), which the index width or the memory budget
refuses before anything is built.  It does not go to ``bench --repeat``,
which sets only time: 2^64 repeats is a run no bounded test can wait for.
"""

import json
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from lrqbench import load_statevector
from lrqbench.cli import main

SEED = 20261019
ARGV_COUNT = 300
BIG = str(1 << 64)
EDGE_INTS = ("0", "-1")
EDGE_FLOATS = ("0", "-1", "1e308", "5e307", "nan", "inf")
NOT_FINITE = re.compile(r"\b(NaN|-?Infinity|nan|-?inf)\b")

# argv behind defects found by hand: finite ramps whose angles overflow
# (an uncaught error, NaN results or numeric warnings), and seeds outside
# [0, 2^64), which aliased one inside (now exit 2, see test_cli)
REGRESSIONS = [
    ("simulate", "--instance", "{inst}", "--out", "{out}/r.json", "--delta", "1e308"),
    ("simulate", "--instance", "{inst}", "--out", "{out}/r.json", "--delta", "1e308",
     "--mode", "noisy", "--epsilon", "0.1", "--trajectories", "3"),
    ("simulate", "--instance", "{inst}", "--out", "{out}/r.json", "--delta-gamma", "5e307"),
    ("bench", "--nq", "4", "--shards", "1,2", "--p", "1", "--out", "{out}/b.csv",
     "--delta", "1e308"),
    ("gen", "--n", "4", "--out", "{out}/i.json", "--seed", BIG),
    ("gen", "--n", "4", "--out", "{out}/i.json", "--seed", "-1"),
]


def pick(rng, normal, edge=()):
    """A valid value most of the time, else an edge value."""
    pool = edge if edge and rng.random() < 0.2 else normal
    return str(pool[rng.integers(len(pool))])


def optional(rng, argv, flag, normal, edge=(), p=0.4):
    if rng.random() < p:
        argv += [flag, pick(rng, normal, edge)]


def gen_argv(rng, d):
    argv = ["gen", "--n", pick(rng, (2, 4, 6), (*EDGE_INTS, BIG)), "--out", f"{d['out']}/i.json"]
    optional(rng, argv, "--solve-limit", (3, 24), (*EDGE_INTS, BIG))
    optional(rng, argv, "--seed", (0, 5, (1 << 64) - 1), (*EDGE_INTS, BIG))
    return argv


def simulate_argv(rng, d):
    inst = d["inst"] if rng.random() < 0.8 else d["unsolved"]
    argv = ["simulate", "--instance", inst, "--out", f"{d['out']}/r.json"]
    optional(rng, argv, "--p", (1, 2, 3), (*EDGE_INTS, BIG))
    for flag in ("--delta", "--delta-beta", "--delta-gamma"):
        optional(rng, argv, flag, (0.1, 0.2, 0.9), EDGE_FLOATS, p=0.3)
    optional(rng, argv, "--shots", (1, 20), (*EDGE_INTS, BIG))
    optional(rng, argv, "--precision", ("fp32", "fp64"))
    optional(rng, argv, "--memory-bytes", (3000, 10**9), (*EDGE_INTS, BIG), p=0.2)
    optional(rng, argv, "--seed", (0, 3), (*EDGE_INTS, BIG))
    if rng.random() < 0.5:
        argv += ["--mode", "noisy"]
        optional(rng, argv, "--epsilon", (0.0, 0.01, 0.3), EDGE_FLOATS, p=0.7)
        optional(rng, argv, "--trajectories", (1, 3, 7), (*EDGE_INTS, BIG), p=0.6)
        optional(rng, argv, "--threads", (1, 2, 3), (*EDGE_INTS, BIG), p=0.5)
        optional(rng, argv, "--ideal-shots", (5, 30), (*EDGE_INTS, BIG), p=0.2)
    else:
        optional(rng, argv, "--shards", (1, 2, 4), (*EDGE_INTS, BIG), p=0.5)
        if rng.random() < 0.2:
            argv += ["--dump-state", f"{d['out']}/state.bin"]
    if rng.random() < 0.05:  # a flag the other mode owns
        argv += rng.choice([["--threads", "2"], ["--shards", "2"], ["--epsilon", "0.1"]]).tolist()
    return argv


def classify_argv(rng, d):
    argv = ["classify", "--qpu", d["results"], "--instance", d["inst"], "--out", f"{d['out']}/c.json"]
    optional(rng, argv, "--random-pool-size", (200, 400), (*EDGE_INTS, BIG), p=1.0)
    optional(rng, argv, "--n-s", (5, 10), (*EDGE_INTS, BIG), p=0.7)
    optional(rng, argv, "--repeats", (10, 30), (*EDGE_INTS, BIG), p=1.0)
    optional(rng, argv, "--seed", (0, 2), (*EDGE_INTS, BIG))
    if rng.random() < 0.3:
        argv += ["--noiseless", d["results"]]
    if rng.random() < 0.2:
        argv.append("--replacement")
    if rng.random() < 0.2:
        argv += ["--kde-out", f"{d['out']}/kde.csv"]
    return argv


def bench_argv(rng, d):
    argv = ["bench", "--out", f"{d['out']}/b.csv", "--p", pick(rng, (1, 2), (*EDGE_INTS, BIG))]
    if rng.random() < 0.6:
        argv += ["--nq", pick(rng, (4, 5), (*EDGE_INTS, BIG))]
        optional(rng, argv, "--shards", ("1,2", "2", "1,2,4"), (*EDGE_INTS, BIG, "1,3"), p=0.6)
    else:
        argv += ["--mode", "size", "--nq-range", pick(rng, ("4:5", "5"), ("6:4", "x", f"4:{BIG}"))]
        optional(rng, argv, "--nq-local", (3, 4), (*EDGE_INTS, BIG), p=0.9)
    for flag in ("--delta", "--delta-beta", "--delta-gamma"):
        optional(rng, argv, flag, (0.1, 0.2), EDGE_FLOATS, p=0.2)
    optional(rng, argv, "--repeat", (1, 2), EDGE_INTS, p=0.2)
    optional(rng, argv, "--memory-bytes", (2000, 10**9), (*EDGE_INTS, BIG), p=0.2)
    optional(rng, argv, "--seed", (0, 1), (*EDGE_INTS, BIG), p=0.3)
    return argv


def fitnoise_argv(rng, d):
    files = rng.choice(d["fit_inputs"], size=rng.integers(1, 4), replace=False)
    return ["fitnoise", *files.tolist(), "--out", f"{d['out']}/f.json"]


def hqc_argv(rng, d):
    argv = ["hqc", "--n", pick(rng, (4, 40), (*EDGE_INTS, BIG))]
    optional(rng, argv, "--p", (1, 3), (*EDGE_INTS, BIG))
    optional(rng, argv, "--shots", (10, 100), (*EDGE_INTS, BIG))
    optional(rng, argv, "--n-m", (4, 40), (*EDGE_INTS, BIG))
    if rng.random() < 0.8:
        argv += ["--out", f"{d['out']}/h.json"]
    return argv


COMMANDS = (gen_argv, simulate_argv, classify_argv, bench_argv, fitnoise_argv, hqc_argv)


def call(argv) -> int:
    """The exit code of one in-process CLI run; argparse exits by raising."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    paths = {name: str(d / f"{name}.json") for name in ("inst", "unsolved", "results", "noisy")}
    assert call(["gen", "--n", "5", "--seed", "3", "--out", paths["inst"]]) == 0
    assert call(["gen", "--n", "6", "--solve-limit", "4", "--out", paths["unsolved"]]) == 0
    assert call(["simulate", "--instance", paths["inst"], "--out", paths["results"]]) == 0
    noisy = ["--mode", "noisy", "--epsilon", "0.05", "--trajectories", "4", "--p", "2"]
    assert call(["simulate", "--instance", paths["inst"], "--out", paths["noisy"], *noisy]) == 0
    # results written by hand, with the edge values where fitnoise reads numbers
    crafted = []
    records = [{"eps_acc": x, "r_ovl": r} for x, r in [
        (0.5, 0.6), (0.0, 0.9), (1e308, 0.5), (2.0, 5e307), (-1.0, 0.5),
        (float("nan"), 0.5), (1.0, float("inf")), (float("inf"), 0.5), (3.0, 0.0), ("x", 0.5),
    ]]
    records += [{"n_2q": float("inf"), "epsilon": 0.1, "r_ovl": 0.5}, {"r_ovl": 0.5}]
    for k, record in enumerate(records):
        path = d / f"crafted{k}.json"
        path.write_text(json.dumps(record))
        crafted.append(str(path))
    paths["fit_inputs"] = [paths["noisy"], paths["results"], str(d / "missing.json"), *crafted]
    return paths


def check_argv(argv, out: Path) -> None:
    out.mkdir()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = call(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        written = sorted(p.name for p in out.iterdir())
        if code != 0:
            assert not written, (argv, code, written)
        else:
            assert not [name for name in written if name.endswith(".tmp")], (argv, written)
            for path in out.iterdir():
                if path.suffix == ".bin":
                    assert np.isfinite(load_statevector(path).amps).all(), argv
                else:
                    assert not NOT_FINITE.search(path.read_text()), (argv, path.name)
            for manifest in out.glob("*.manifest.json"):
                assert call(["replay", manifest]) == 0, (argv, manifest.name)
    numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not numeric, (argv, numeric)
    shutil.rmtree(out)


def test_cli_fuzz(inputs, tmp_path):
    d = {**inputs, "out": str(tmp_path / "out")}
    rng = np.random.default_rng(SEED)
    argvs = [[a.format(**d) for a in argv] for argv in REGRESSIONS]
    argvs += [COMMANDS[rng.integers(len(COMMANDS))](rng, d) for _ in range(ARGV_COUNT)]
    for argv in argvs:
        check_argv(argv, tmp_path / "out")
