"""Benchmark of lrqbench: seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload pipeline_n20 --seed 1 --seconds 15 --trace 0

Runs one workload from ``BENCHMARK.json`` in this process against the
package under ``src/`` and prints one line per metric, then, as the last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, with times
scaled by the host speed that ``hostspeed.py`` measures during the run;
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics, writing the spans to ``.bench_out/``.  ``--smoke``
shrinks every workload to a few seconds for the benchmark's own tests.  See README.md in
this directory for the metrics and the span file format.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed
from spans import LAYERS, Patches, Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, a child process failed)."""


def process_age() -> float:
    """Seconds since this process started, at clock-tick resolution."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def memory_mib(field: str) -> float:
    """``VmHWM`` (peak) or ``VmRSS`` (current) resident size of this process.

    Unlike ``ru_maxrss``, which Linux carries across exec, ``VmHWM``
    belongs to this address space alone, so a child started from a large
    parent does not inherit the parent's peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"/proc/self/status has no {field}")


def load_package():
    """Import lrqbench from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "lrqbench" / "__init__.py").is_file():
        raise BenchError(f"no lrqbench package under {SRC}")
    sys.path.insert(0, str(SRC))
    lrq = importlib.import_module("lrqbench")
    if Path(lrq.__file__).resolve().parent != SRC / "lrqbench":
        raise BenchError(f"imported lrqbench from {lrq.__file__}, not from {SRC}")
    for layer in LAYERS:
        importlib.import_module(f"lrqbench.{layer}")
    return lrq


def llc_bytes() -> int | None:
    """Size of the largest cache level that cpu0 reports."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def copy_bandwidth() -> dict:
    """Main-memory copy rate, counting bytes read plus bytes written, with
    each array at least four times the last-level cache."""
    import numpy as np

    nbytes = max(4 * (llc_bytes() or 0), 256 << 20)
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return {"copy_gbps": 2 * src.nbytes / statistics.median(times) / 1e9, "array_mib": src.nbytes / (1 << 20)}


def host_record(lrq, seed: int) -> dict:
    import numpy as np

    llc = llc_bytes()
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "lrqbench": lrq.__version__,
        "seed": seed,
        "llc_mib": None if llc is None else llc / (1 << 20),
    }


def child(args: argparse.Namespace, role: str) -> dict:
    """Run this script in a fresh process in ``role`` and return its JSON."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--child", role]
    if args.smoke:
        argv.append("--smoke")
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} child timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{role} child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_child(args: argparse.Namespace) -> dict:
    if args.child == "copy":
        return copy_bandwidth()
    lrq = load_package()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root()))
    try:
        wl = WORKLOADS[args.workload](lrq, args.seed, args.smoke, workdir)
        if args.child == "reference":
            return {"reference": wl.reference()}
        wl.pin()
        wl.setup()
        with Patches() as patches:
            wl.install_probes(patches)
            wl.run()
        return {"setup_s": process_age(), "peak_rss_mib": memory_mib("VmHWM")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def work_root() -> Path:
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def write_spans(args: argparse.Namespace, tracer: Tracer, iterations: int) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "iterations": iterations})
    return path.relative_to(ROOT)


def measure(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Run the workload; return the result object and the lines to print."""
    lrq = load_package()
    rss_import = memory_mib("VmRSS")
    modules = {f"lrqbench.{layer}": getattr(lrq, layer) for layer in LAYERS}
    lines = ["host " + json.dumps(host_record(lrq, args.seed))]
    outcomes = []
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root()))
    speed = None
    try:
        wl = WORKLOADS[args.workload](lrq, args.seed, args.smoke, workdir)
        wl.pin()
        wl.setup()
        with Patches() as patches:
            wl.install_probes(patches)
            wl.run()
        setups = [{"setup_s": process_age(), "peak_rss_mib": memory_mib("VmHWM")}]
        wl.ref = child(args, "reference")["reference"]
        outcomes += wl.reference_checks() + wl.check()

        # The set-up children run between timed iterations, so the timed
        # samples spread over the whole run instead of one block of it:
        # on a shared host the speed drifts over tens of seconds.  The
        # host-speed kernel runs before every CLI invocation of a timed
        # iteration and after the iteration, in a helper process, and each
        # iteration is scaled by the samples taken around its invocations.
        pending_setups = 0 if args.trace else SETUP_SAMPLES - 1
        if not args.trace:
            speed = HostSpeed(wl.speed_kernel)
        tracer = Tracer()
        untraced, traced, factors = [], [], []
        while not untraced or (args.trace and not traced) or sum(untraced) + sum(traced) < args.seconds:
            first_sample = len(speed.samples) if speed else 0
            with Patches() as patches:
                wl.install_probes(patches)
                untraced.append(wl.run(speed))
            if speed:
                speed.sample()
                factors.append(speed.factor(speed.samples[first_sample:]))
            outcomes += wl.check()
            if args.trace:
                tracer.trace_id += 1
                with Patches() as patches:
                    tracer.install(patches, modules)
                    wl.install_probes(patches, tracer)
                    traced.append(wl.run())
                outcomes += wl.check()
            if pending_setups:
                setups.append(child(args, "setup"))
                pending_setups -= 1
        setups += [child(args, "setup") for _ in range(pending_setups)]

        if args.trace:
            metrics = layer_metrics(tracer.spans, len(traced), memory_mib("VmHWM") - rss_import)
            metrics.update(wl.layer_extras())
            dense = metrics["sharded.dense_s"]
            metrics["sharded.overhead_s1"] = metrics["sharded.run_s.s1"] / dense if dense else 0.0
            metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
            metrics["host.copy_gbps"] = child(args, "copy")["copy_gbps"]
            samples = f"{len(traced)} traced iterations"
            lines.append(f"spans written to {write_spans(args, tracer, len(traced))}")
        else:
            metrics = {
                "wall_s": statistics.median(t * f for t, f in zip(untraced, factors)),
                "setup_s": statistics.median(s["setup_s"] for s in setups) * speed.factor(speed.samples),
                "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in setups),
            }
            samples = None
            lines.append(
                f"host speed = {listing(factors)} per iteration, {speed.factor(speed.samples):.4g} over the run "
                f"(reference {REFERENCE_S[speed.kernel]} s over the median {speed.kernel} kernel time; "
                f"{len(speed.samples)} samples: {listing(speed.samples)})"
            )
    finally:
        if speed is not None:
            speed.close()
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_metrics(bool(args.trace))
    if set(metrics) != set(units):
        raise BenchError(f"computed metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    counts = {
        "wall_s": f"median of {len(untraced)} iterations, each times its host speed: {listing(untraced)}",
        "setup_s": f"median of {len(setups)} set-ups, times the run's host speed: {listing(s['setup_s'] for s in setups)}",
        "peak_rss_mib": f"median of {len(setups)} set-up processes: {listing(s['peak_rss_mib'] for s in setups)}",
    }
    for name, unit in units.items():
        lines.append(f"{name} = {metrics[name]:.6g} {unit} ({samples or counts[name]})")
    failed = sum(not o.ok for o in outcomes)
    lines.append(f"failed_frac = {failed}/{len(outcomes)} = {failed / len(outcomes):.6g}")
    lines += [f"FAILED {o.operation}: {o.detail}" for o in outcomes if not o.ok]
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def listing(values) -> str:
    return ", ".join(f"{v:.4g}" for v in values)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0, help="timed seconds of iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    parser.add_argument("--child", choices=("setup", "reference", "copy"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.child:
            print(json.dumps(run_child(args)))
            return 0
        result, lines = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
