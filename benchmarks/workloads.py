"""The three seeded workloads and the checks on their outputs.

Each workload drives the package through ``lrqbench.cli.main`` in process,
exactly as the ``lrqbench`` command would, inside a scratch directory of
its own.  One iteration is the time to the user's result: a regime
verdict, a fitted k0, or a scaling sweep.  After every iteration the
outputs are checked against the referees the package already trusts
(``norm_tolerance``, an fp64 run, the brute-force optimum, the dense
engine, the static ``exchange_volume``); a failed check, a non-zero exit
or an exception makes that operation count as failed.

References (an fp64 state, a dense state to compare the sharded one
against) are computed in a child process, so they cannot raise the
workload's own peak RSS.  Probes that look at an in-memory result wrap the name the
calling module resolves and keep only a verdict or a digest; their time
is subtracted from the iteration.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

P = 3
FP64_TOLERANCE = 1e-5  # |r_fp32 - r_fp64|; measured 5.6e-7 at n=20
NOISE_EPS_ACC = (0.05, 1.0, 5.0)


@dataclass(frozen=True)
class Outcome:
    operation: str
    ok: bool
    detail: str = ""


def sub_seeds(seed: int, count: int) -> list[int]:
    """Independent CLI seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint32)]


def digest(amps: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(amps)).hexdigest()


class Workload:
    name = ""
    # The hostspeed kernel whose time moves with this workload's.
    speed_kernel = "big"
    # CPUs the workload's process may use; None leaves them all.
    cpus: int | None = None

    def __init__(self, lrq, seed: int, smoke: bool, workdir: Path) -> None:
        self.lrq = lrq
        self.seed = seed
        self.smoke = smoke
        self.dir = workdir
        self.ref: dict = {}
        self.status: list[tuple[list[str], object]] = []
        self.seen: list = []
        self.probe_s = 0.0
        self.speed = None

    # -- driving -----------------------------------------------------------

    def pin(self) -> None:
        """Keep this process, and the threads and processes it starts, on
        the first ``cpus`` CPUs it may use."""
        if self.cpus is not None:
            os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: self.cpus])

    def cli(self, *argv) -> None:
        """One CLI invocation, looked up at call time so wrappers apply."""
        if self.speed is not None:
            t0 = time.perf_counter()
            self.speed.sample()
            self.probe_s += time.perf_counter() - t0
        argv = [str(a) for a in argv]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.lrq.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation; the run goes on
            rc = f"{type(exc).__name__}: {exc}"
        self.status.append((argv, rc))

    def run(self, speed=None) -> float:
        """One timed iteration; returns its wall seconds without probe time.

        With a ``hostspeed.HostSpeed``, its kernel is timed before every
        CLI invocation, so the samples follow the host through the
        iteration; that time is not counted either.
        """
        self.status, self.seen, self.probe_s, self.speed = [], [], 0.0, speed
        t0 = time.perf_counter()
        try:
            self.iteration()
        finally:
            self.speed = None
        return time.perf_counter() - t0 - self.probe_s

    def install_probes(self, patches, tracer=None) -> None:
        for module, attr, hook in self.probes():
            func = getattr(module, attr)
            if tracer is not None:
                hook = tracer.wrap(hook, "bench")

            def probed(*args, _func=func, _hook=hook, **kwargs):
                result = _func(*args, **kwargs)
                t0 = time.perf_counter()
                _hook(result)
                self.probe_s += time.perf_counter() - t0
                return result

            patches.set(module, attr, probed)

    def check(self) -> list[Outcome]:
        """Outcomes of the last iteration's operations, in order."""
        outcomes = []
        for argv, rc in self.status:
            label = f"{argv[0]} {Path(argv[argv.index('--out') + 1]).name}"
            if rc != 0:
                outcomes.append(Outcome(label, False, f"exit status {rc}"))
                continue
            try:
                problem = self.check_output(argv)
            except Exception as exc:  # unreadable output is a failed check
                problem = f"{type(exc).__name__}: {exc}"
            outcomes.append(Outcome(label, problem is None, problem or ""))
        return outcomes

    # -- per workload ------------------------------------------------------

    def setup(self) -> None:
        """Generate the inputs the iterations read."""

    def iteration(self) -> None:
        raise NotImplementedError

    def check_output(self, argv: list[str]) -> str | None:
        """Why the output of one invocation is wrong, or None."""
        raise NotImplementedError

    def probes(self) -> list:
        return []

    def reference(self) -> dict:
        """Reference values for the checks, computed once in a child process."""
        raise NotImplementedError

    def reference_checks(self) -> list[Outcome]:
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Per-layer metrics taken outside the traced iterations."""
        return {
            "sharded.exchange_volume.s2": 0,
            "sharded.exchange_volume.s4": 0,
            "sharded.dense_s": 0.0,
        }

    def out(self, name: str) -> Path:
        return self.dir / name


class PipelineN20(Workload):
    """gen -> simulate -> classify on one n=20 instance."""

    name = "pipeline_n20"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.n = 8 if self.smoke else 20
        self.shots = 2000
        self.device_shots = 500
        self.s_inst, self.s_sim, self.s_cls, self.s_device = sub_seeds(self.seed, 4)

    def setup(self) -> None:
        """Write the measured-shots file a device would supply: half the shots
        are the optimum with each bit flipped at 10 %, half are uniform."""
        problem = self.lrq.problem
        inst = problem.solve_instance(problem.generate_instance(self.n, self.s_inst))
        rng = np.random.default_rng(self.s_device)
        best = np.array([int(b) for b in inst.optimal_cut.bitstring])
        near = rng.random(self.device_shots) < 0.5
        flips = rng.random((self.device_shots, self.n)) < 0.1
        uniform = rng.integers(0, 2, size=(self.device_shots, self.n))
        bits = np.where(near[:, None], best ^ flips, uniform)
        self.device_bits = ["".join(map(str, row)) for row in bits]
        self.out("device.json").write_text(json.dumps({"bitstrings": self.device_bits}))

    def iteration(self) -> None:
        inst, ref = self.out("instance.json"), self.out("noiseless.json")
        self.cli("gen", "--n", self.n, "--out", inst, "--seed", self.s_inst)
        self.cli(
            "simulate", "--instance", inst, "--out", ref, "--p", P,
            "--precision", "fp32", "--shots", self.shots, "--seed", self.s_sim,
        )
        self.cli(
            "classify", "--qpu", self.out("device.json"), "--instance", inst,
            "--noiseless", ref, "--out", self.out("report.json"), "--seed", self.s_cls,
        )

    def probes(self) -> list:
        return [(self.lrq.cli, "run_circuit", self._norm_probe)]

    def _norm_probe(self, sv) -> None:
        self.seen.append(abs(sv.norm_squared() - 1.0) <= sv.norm_tolerance())

    def check_output(self, argv: list[str]) -> str | None:
        problem = self.lrq.problem
        inst = problem.load_instance(self.out("instance.json"))
        if argv[0] == "gen":
            return None if inst.optimal_cut is not None else "instance written unsolved"
        if argv[0] == "simulate":
            data = json.loads(self.out("noiseless.json").read_text())
            if self.seen != [True]:
                return f"norm drift outside norm_tolerance() (probe saw {self.seen})"
            if abs(data["exact_expected_r"] - self.ref["r_fp64"]) > FP64_TOLERANCE:
                return f"fp32 ratio {data['exact_expected_r']} vs fp64 {self.ref['r_fp64']}"
            if len(data["bitstrings"]) != self.shots:
                return f"{len(data['bitstrings'])} shots, asked for {self.shots}"
            if problem.shot_ratios(inst, data["bitstrings"]).max() > 1.0 + 1e-12:
                return "a shot cuts more than the solved optimum"
            return None
        report = json.loads(self.out("report.json").read_text())
        expected = float(problem.shot_ratios(inst, self.device_bits).mean())
        if report["verdict"] not in ("noise_tolerant", "transition", "random"):
            return f"unknown verdict {report['verdict']!r}"
        if abs(report["qpu_mean_r"] - expected) > 1e-12:
            return f"qpu_mean_r {report['qpu_mean_r']} vs {expected}"
        return None

    def reference(self) -> dict:
        lrq = self.lrq
        inst = lrq.problem.solve_instance(lrq.problem.generate_instance(self.n, self.s_inst))
        circuit = lrq.circuit.build_circuit(inst, lrq.circuit.LrQaoaParams(p=P))
        sv = lrq.engine.run_circuit(circuit, "fp64")
        return {"r_fp64": lrq.engine.exact_expected_r(sv, inst)}

    def reference_checks(self) -> list[Outcome]:
        ok = math.isfinite(self.ref.get("r_fp64", math.nan))
        return [Outcome("fp64 reference run", ok)]


class NoiseDecay(Workload):
    """The fitnoise flow: noisy runs at three accumulated errors, then a fit,
    for two instance sizes."""

    name = "noise_decay"
    speed_kernel = "small"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sizes = (4, 6) if self.smoke else (8, 12)
        # 100 trajectories, not the 200 the fitnoise examples use: an
        # iteration of about 3.5 s leaves four or more per timed run, and
        # with only two the median followed the host's speed swings.
        self.trajectories = 10 if self.smoke else 100
        self.shots = 4
        seeds = sub_seeds(self.seed, len(self.sizes) + 1)
        self.s_inst, self.s_sim = seeds[:-1], seeds[-1]
        n_2q = {n: self.lrq.circuit.gate_counts(n, P)[1] for n in self.sizes}
        self.epsilons = {n: [eps_acc / n_2q[n] for eps_acc in NOISE_EPS_ACC] for n in self.sizes}

    def instance_path(self, n: int) -> Path:
        return self.out(f"instance{n}.json")

    def setup(self) -> None:
        problem = self.lrq.problem
        for n, s in zip(self.sizes, self.s_inst):
            problem.save_instance(problem.solve_instance(problem.generate_instance(n, s)), self.instance_path(n))

    def iteration(self) -> None:
        for n in self.sizes:
            runs = []
            for k, epsilon in enumerate(self.epsilons[n]):
                runs.append(self.out(f"noisy{n}_{k}.json"))
                self.cli(
                    "simulate", "--instance", self.instance_path(n), "--out", runs[-1],
                    "--mode", "noisy", "--epsilon", repr(epsilon), "--p", P,
                    "--trajectories", self.trajectories, "--shots", self.shots, "--seed", self.s_sim,
                )
            self.cli("fitnoise", *runs, "--out", self.out(f"fit{n}.json"))

    def check_output(self, argv: list[str]) -> str | None:
        data = json.loads(Path(argv[argv.index("--out") + 1]).read_text())
        if argv[0] == "fitnoise":
            return None if data["k0"] > 0.0 else f"fitted k0 = {data['k0']}"
        if len(data["bitstrings"]) != self.trajectories * self.shots:
            return f"{len(data['bitstrings'])} shots, asked for {self.trajectories * self.shots}"
        return None if math.isfinite(data["r_ovl"]) else f"r_ovl = {data['r_ovl']}"

    def reference(self) -> dict:
        """Whether a one-trajectory ensemble at epsilon 0 reproduces the
        noiseless sampler byte for byte, per size."""
        lrq = self.lrq
        equal = []
        for n, s in zip(self.sizes, self.s_inst):
            inst = lrq.problem.generate_instance(n, s)
            circuit = lrq.circuit.build_circuit(inst, lrq.circuit.LrQaoaParams(p=P))
            cfg = lrq.noise.DepolarizingConfig(epsilon=0.0, trajectories=1, rng_seed=self.s_sim)
            noisy = lrq.noise.run_noisy_ensemble(circuit, cfg, self.shots)
            clean = lrq.engine.sample(lrq.engine.run_circuit(circuit), self.shots, self.s_sim)
            equal.append(noisy.indices.tobytes() == clean.indices.tobytes())
        return {"eps0_equal": equal}

    def reference_checks(self) -> list[Outcome]:
        return [
            Outcome(f"epsilon=0 ensemble, n={n}", ok)
            for n, ok in zip(self.sizes, self.ref["eps0_equal"], strict=True)
        ]


class ShardedStrong(Workload):
    """bench --mode strong at 1 and 2 shards."""

    name = "sharded_strong"
    # Shard threads work in lockstep, trading messages at every gate.  On
    # two vCPUs of a shared host a wake-up across vCPUs waits for the host
    # to run the other vCPU, which took the 1-shard n=20 run from 2.2 s to
    # 6.3 s and a whole iteration to 14.6 s in slow phases.  On one CPU every
    # hand-off stays inside the guest's scheduler, so the workload measures
    # the exchange and the protocol rather than the host; the 2-shard run
    # gets no parallel speed-up.
    cpus = 1

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # n=18, not 20: pinned, an n=20 iteration took 5.7 to 6.6 s, so a
        # run held three, and its median spread by 24 % over five runs;
        # n=18 takes about 1.2 s with a spread of 7 % over 40 iterations.
        self.nq = 8 if self.smoke else 18
        (self.s_inst,) = sub_seeds(self.seed, 1)

    def circuit(self):
        lrq = self.lrq
        inst = lrq.problem.generate_instance(self.nq, self.s_inst)
        return lrq.circuit.build_circuit(inst, lrq.circuit.LrQaoaParams(p=P))

    def setup(self) -> None:
        """Exchange volume from static analysis; no 4-shard run is started."""
        sharded, circuit = self.lrq.sharded, self.circuit()
        self.volume = {
            k: sharded.exchange_volume(circuit, sharded.plan_for_shard_count(self.nq, k))
            for k in (1, 2, 4)
        }

    def iteration(self) -> None:
        self.cli(
            "bench", "--mode", "strong", "--nq", self.nq, "--p", P, "--shards", "1,2",
            "--precision", "fp32", "--seed", self.s_inst, "--out", self.out("sweep.csv"),
        )

    def probes(self) -> list:
        return [(self.lrq.sharded, "run_circuit_sharded", self._state_probe)]

    def _state_probe(self, result) -> None:
        sv, record = result
        self.seen.append((record.num_shards, digest(sv.amps), record.amps_exchanged))

    def check_output(self, argv: list[str]) -> str | None:
        if sorted(s for s, _, _ in self.seen) != [1, 2]:
            return f"expected one run at 1 and 2 shards, saw {[s for s, _, _ in self.seen]}"
        for shards, state, amps in self.seen:
            if state != self.ref["dense_sha256"]:
                return f"{shards}-shard state differs from dense run_circuit"
            if amps != self.volume[shards]:
                return f"{shards} shards exchanged {amps} amplitudes, exchange_volume says {self.volume[shards]}"
        written = {1: 0, 2: 0}
        with open(self.out("sweep.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                written[int(row["num_shards"])] += int(row["amps_exchanged"])
        if written != {k: self.volume[k] for k in written}:
            return f"timing CSV exchange counts {written} vs exchange_volume {self.volume}"
        return None

    def reference(self) -> dict:
        return {"dense_sha256": digest(self.lrq.engine.run_circuit(self.circuit()).amps)}

    def reference_checks(self) -> list[Outcome]:
        return [Outcome("dense reference run", bool(self.ref.get("dense_sha256")))]

    def layer_extras(self) -> dict[str, float]:
        circuit = self.circuit()
        dense = []
        for _ in range(2):
            t0 = time.perf_counter()
            self.lrq.engine.run_circuit(circuit)
            dense.append(time.perf_counter() - t0)
        return {
            "sharded.exchange_volume.s2": self.volume[2],
            "sharded.exchange_volume.s4": self.volume[4],
            "sharded.dense_s": statistics.median(dense),
        }


WORKLOADS = {w.name: w for w in (PipelineN20, NoiseDecay, ShardedStrong)}
