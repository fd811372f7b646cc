"""Command-line front end.

Subcommands cover the full workflow: ``gen`` writes instances, ``simulate``
runs them (noiseless or noisy, optionally sharded), ``classify`` places
measured shots in a performance regime, ``bench`` sweeps shard counts or
problem sizes, ``fitnoise`` extracts the decay constant from a set of
noisy runs, and ``hqc`` prints the credit cost of a hypothetical job.

Every file-writing invocation also writes ``<output>.manifest.json``
recording the tool version, argv, resolved parameters, and SHA-256
digests of inputs and outputs; ``replay`` re-executes a manifest's argv
once every recorded input matches its digest, then checks every output
against its digest.  Timing CSVs change on every run, so the manifest
lists them under ``compared_by_schema`` with their header and row count,
and ``replay`` compares those instead.  Every output and manifest goes
through ``files.write_output``: written whole beside the target and
renamed into place, never truncated in place, so neither a reader nor
``replay`` sees a partial file.
Exit codes: 0 success, 2 bad input, 3 over a capacity limit, 4 runtime
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import LrQaoaParams, build_circuit, gate_counts, hqc_cost
from .engine import (
    Precision,
    exact_expected_r,
    norm_tolerance,
    run_circuit,
    sample,
    save_statevector,
)
from .errors import (
    AbortedRunError,
    CapacityError,
    StateError,
    ValidationError,
)
from .files import write_output
from .noise import DepolarizingConfig, epsilon_accumulated, fit_k0, r_overlap, run_noisy_ensemble
from .problem import (
    approximation_ratio,
    generate_instance,
    load_instance,
    random_baseline_expectation,
    save_instance,
    shot_ratios,
    solve_instance,
)
from .rng import derive_seed
from .sharded import (
    SweepConfig,
    plan_for_shard_count,
    run_circuit_sharded,
    scaling_sweep,
    write_timing_csv,
)
from .stats import ResampleConfig, classify, kde_curve, uniform_sampler

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_CAPACITY = 3
_EXIT_RUNTIME = 4


def _resolve_threads(args) -> int:
    """The worker-thread count: ``--threads``, else ``LRQBENCH_THREADS``,
    else 1.  A count below 1 or a non-integer is a validation error.  The
    count and where it came from ("--threads", "LRQBENCH_THREADS" or
    "default") are written back to ``args``, so the manifest records them."""
    if args.threads is not None:
        source, value = "--threads", args.threads
    elif "LRQBENCH_THREADS" in os.environ:
        source, raw = "LRQBENCH_THREADS", os.environ["LRQBENCH_THREADS"]
        try:
            value = int(raw)
        except ValueError:
            raise ValidationError(f"{source} must be an integer, got {raw!r}") from None
    else:
        source, value = "default", 1
    if value < 1:
        raise ValidationError(f"{source} must be at least 1, got {value}")
    args.threads, args.threads_source = value, source
    return value


def _check_memory_bytes(args) -> None:
    """A ``--memory-bytes`` below 1 is a validation error (the engine checks
    ``LRQBENCH_MEMORY_BYTES`` where it reads it); a positive budget too
    small for the run is a capacity error."""
    if args.memory_bytes is not None and args.memory_bytes < 1:
        raise ValidationError(f"--memory-bytes must be at least 1, got {args.memory_bytes}")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _csv_schema(path: Path) -> dict:
    """What a timing CSV keeps from run to run: its header and row count."""
    header, *rows = path.read_text().splitlines() or [""]
    return {"header": header, "rows": len(rows)}


def _write_manifest(
    args, inputs: list[Path], outputs: list[Path], by_schema: tuple[Path, ...] = ()
) -> Path:
    """``<outputs[0]>.manifest.json``; the outputs in ``by_schema`` are
    listed under ``compared_by_schema`` for ``replay``."""
    anchor = outputs[0]
    params = {
        k: _jsonable(v)
        for k, v in vars(args).items()
        if k not in ("func", "argv") and not callable(v)
    }
    manifest = {
        "tool": "lrqbench",
        "version": __version__,
        "command": args.command,
        "argv": list(args.argv),
        "params": params,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
    }
    if by_schema:
        manifest["compared_by_schema"] = {str(p): _csv_schema(Path(p)) for p in by_schema}
    path = Path(str(anchor) + ".manifest.json")
    write_output(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _write_json(path: Path, payload: dict) -> None:
    write_output(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_timing(path: Path, records) -> None:
    text = io.StringIO()
    write_timing_csv(records, text)
    write_output(path, text.getvalue())


def _load_results(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read results file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"results file {path} is not a JSON object")
    return data


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    threads = _resolve_threads(args)
    inst = generate_instance(args.n, args.seed)
    if args.n <= args.solve_limit:
        inst = solve_instance(inst, limit=args.solve_limit, threads=threads)
    else:
        print(
            f"warning: n={args.n} exceeds solve limit {args.solve_limit}; "
            "optimal cut omitted",
            file=sys.stderr,
        )
    save_instance(inst, args.out)
    _write_manifest(args, inputs=[], outputs=[args.out])
    opt = "null" if inst.optimal_cut is None else f"{inst.optimal_cut.value:.6f}"
    print(f"wrote {args.out}: n={args.n} edges={inst.num_edges} optimal={opt}")
    return _EXIT_OK


def _resolved_deltas(args) -> tuple[float, float]:
    beta = args.delta if args.delta_beta is None else args.delta_beta
    gamma = args.delta if args.delta_gamma is None else args.delta_gamma
    return beta, gamma


def _check_mode_flags(args) -> None:
    """Reject simulate and bench flags that the chosen mode would silently
    ignore."""
    if args.func is _cmd_bench and args.mode == "strong":
        ignored = {"--nq-range": args.nq_range is not None, "--nq-local": args.nq_local is not None}
    elif args.func is _cmd_bench:
        ignored = {"--nq": args.nq is not None, "--shards": args.shards is not None}
    elif args.mode == "noisy":
        ignored = {"--shards": args.shards != 1, "--dump-state": args.dump_state is not None}
    else:
        ignored = {
            "--epsilon": args.epsilon != 0,
            "--trajectories": args.trajectories != 1,
            "--ideal-shots": args.ideal_shots is not None,
            "--threads": args.threads is not None,
        }
    named = [flag for flag, given in ignored.items() if given]
    if named:
        raise ValidationError(f"{', '.join(named)} not used in --mode {args.mode}")


def _cmd_simulate(args) -> int:
    _check_mode_flags(args)
    _check_memory_bytes(args)
    inst = load_instance(args.instance)
    delta_beta, delta_gamma = _resolved_deltas(args)
    params = LrQaoaParams(p=args.p, delta_beta=delta_beta, delta_gamma=delta_gamma)
    circuit = build_circuit(inst, params)
    n_1q, n_2q = gate_counts(inst.num_vertices, args.p)
    solved = inst.optimal_cut is not None
    if args.ideal_shots is not None and not solved:
        raise ValidationError(
            f"--ideal-shots needs a solved instance, and {args.instance} has no optimal cut"
        )

    payload = {
        "n": inst.num_vertices,
        "p": args.p,
        "delta_beta": delta_beta,
        "delta_gamma": delta_gamma,
        "seed": args.seed,
        "precision": args.precision,
        "n_1q": n_1q,
        "n_2q": n_2q,
        "mode": args.mode,
    }
    outputs, timing = [args.out], ()

    if args.mode == "noiseless":
        if args.shards != 1:
            plan = plan_for_shard_count(inst.num_vertices, args.shards)
            sv, record = run_circuit_sharded(
                circuit, plan, args.precision, args.memory_bytes
            )
            timing = (args.out.with_suffix(".timing.csv"),)
            _write_timing(timing[0], [record])
            outputs.extend(timing)
        else:
            sv = run_circuit(circuit, args.precision, args.memory_bytes)
        shots = sample(sv, args.shots, args.seed)
        payload.update(
            {
                "shards": args.shards,
                "shots": args.shots,
                "mean_r": approximation_ratio(inst, shots) if solved else None,
                "exact_expected_r": exact_expected_r(sv, inst) if solved else None,
                "norm_drift": abs(sv.norm_squared() - 1.0),
                "norm_tolerance": sv.norm_tolerance(),
                "bitstrings": shots.bitstrings(),
            }
        )
        if args.dump_state is not None:
            save_statevector(sv, args.dump_state)
            outputs.append(args.dump_state)
    else:
        cfg = DepolarizingConfig(
            epsilon=args.epsilon, trajectories=args.trajectories, rng_seed=args.seed
        )
        shots = run_noisy_ensemble(
            circuit,
            cfg,
            args.shots,
            args.precision,
            args.memory_bytes,
            threads=_resolve_threads(args),
        )
        mean_r = ovl = None
        if solved:
            ideal_sv = run_circuit(circuit, args.precision, args.memory_bytes)
            mean_r = approximation_ratio(inst, shots)
            if args.ideal_shots is None:
                r_ideal = exact_expected_r(ideal_sv, inst)
            else:
                ideal_set = sample(
                    ideal_sv, args.ideal_shots, derive_seed(args.seed, "ideal")
                )
                r_ideal = approximation_ratio(inst, ideal_set)
            r_random = random_baseline_expectation(inst)
            ovl = r_overlap(mean_r, r_random, r_ideal)
            payload.update({"r_ideal": r_ideal, "r_random": r_random})
        payload.update(
            {
                "epsilon": args.epsilon,
                "trajectories": args.trajectories,
                "shots": args.shots,
                "eps_acc": epsilon_accumulated(n_2q, args.epsilon),
                "paulis_expected": 15 / 16 * args.epsilon * n_2q * args.trajectories,
                "paulis_fired": int(shots.paulis_fired.sum()),
                "zero_fire_trajectories": int(np.count_nonzero(shots.paulis_fired == 0)),
                "norm_drift": shots.norm_drift,
                "norm_tolerance": norm_tolerance(
                    inst.num_vertices, Precision.coerce(args.precision)
                ),
                "mean_r": mean_r,
                "r_ovl": ovl,
                "bitstrings": shots.bitstrings(),
            }
        )

    _write_json(args.out, payload)
    _write_manifest(args, inputs=[args.instance], outputs=outputs, by_schema=timing)
    shown = "n/a" if payload["mean_r"] is None else f"{payload['mean_r']:.4f}"
    print(f"wrote {args.out}: mode={args.mode} mean_r={shown}")
    return _EXIT_OK


def _cmd_classify(args) -> int:
    inst = load_instance(args.instance)
    qpu_data = _load_results(args.qpu)
    bitstrings = qpu_data.get("bitstrings")
    if not bitstrings:
        raise ValidationError(f"{args.qpu} has no bitstrings to classify")
    if args.random_pool_size < 10 * args.n_s:
        raise ValidationError(
            f"random pool of {args.random_pool_size} is too small for "
            f"n_s={args.n_s}; need at least {10 * args.n_s}"
        )
    qpu_r = shot_ratios(inst, bitstrings)
    random_pool = shot_ratios(
        inst, uniform_sampler(inst, args.random_pool_size, args.seed)
    )
    noiseless_pool = None
    inputs = [args.instance, args.qpu]
    if args.noiseless is not None:
        nl_data = _load_results(args.noiseless)
        nl_bits = nl_data.get("bitstrings")
        if not nl_bits:
            raise ValidationError(f"{args.noiseless} has no bitstrings")
        noiseless_pool = shot_ratios(inst, nl_bits)
        inputs.append(args.noiseless)

    cfg = ResampleConfig(
        subsample_size=args.n_s,
        repeats=args.repeats,
        rng_seed=args.seed,
        replacement=args.replacement,
    )
    report = classify(qpu_r, random_pool, cfg, noiseless_pool)
    _write_json(args.out, report.to_dict())
    outputs = [args.out]
    if args.kde_out is not None:
        grid, density = kde_curve(report.random_subsample_means)
        rows = "".join(f"{x:.12g},{d:.12g}\n" for x, d in zip(grid, density))
        write_output(args.kde_out, "x,density\n" + rows)
        outputs.append(args.kde_out)
    _write_manifest(args, inputs=inputs, outputs=outputs)
    print(
        f"verdict={report.verdict.value} qpu_mean_r={report.qpu_mean_r:.4f} "
        f"random_threshold={report.random_threshold:.4f}"
    )
    return _EXIT_OK


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise ValidationError(f"bad integer list {text!r}") from exc


def _parse_range(text: str) -> tuple[int, ...]:
    if ":" in text:
        try:
            lo, hi = (int(tok) for tok in text.split(":"))
        except ValueError as exc:
            raise ValidationError(f"bad range {text!r}, expected LO:HI") from exc
        return tuple(range(lo, hi + 1))
    return _parse_int_list(text)


def _cmd_bench(args) -> int:
    _check_mode_flags(args)
    _check_memory_bytes(args)
    delta_beta, delta_gamma = _resolved_deltas(args)
    common = dict(
        p=args.p,
        delta_beta=delta_beta,
        delta_gamma=delta_gamma,
        seed=args.seed,
        precision=args.precision,
        repeat=args.repeat,
        memory_budget=args.memory_bytes,
    )
    if args.mode == "strong":
        if args.nq is None:
            raise ValidationError("strong-scaling bench needs --nq")
        shards = SweepConfig.shard_counts if args.shards is None else _parse_int_list(args.shards)
        cfg = SweepConfig(mode="strong", nq=args.nq, shard_counts=shards, **common)
    else:
        if args.nq_range is None or args.nq_local is None:
            raise ValidationError("size bench needs --nq-range and --nq-local")
        cfg = SweepConfig(
            mode="size",
            nq_values=_parse_range(args.nq_range),
            nq_local=args.nq_local,
            **common,
        )
    records = scaling_sweep(cfg)
    _write_timing(args.out, records)
    _write_manifest(args, inputs=[], outputs=[args.out], by_schema=(args.out,))

    by_key: dict[tuple[int, int], list[float]] = {}
    for rec in records:
        by_key.setdefault((rec.nq, rec.num_shards), []).append(rec.wall_seconds)
    for (nq, shards), walls in sorted(by_key.items()):
        if len(walls) == 1:
            print(f"nq={nq} shards={shards} wall={walls[0]:.3f}s")
        else:
            print(
                f"nq={nq} shards={shards} wall min={min(walls):.3f}s "
                f"median={statistics.median(walls):.3f}s max={max(walls):.3f}s"
            )
    return _EXIT_OK


def _cmd_fitnoise(args) -> int:
    points = []
    skipped = 0
    for path in args.results:
        data = _load_results(path)
        ovl = data.get("r_ovl")
        if ovl is None:
            skipped += 1
            print(f"warning: {path} has no overlap ratio, skipping", file=sys.stderr)
            continue
        if "eps_acc" in data:
            eps_acc = float(data["eps_acc"])
        elif "n_2q" in data and "epsilon" in data:
            eps_acc = epsilon_accumulated(int(data["n_2q"]), float(data["epsilon"]))
        else:
            raise ValidationError(f"{path} lacks eps_acc (or n_2q and epsilon)")
        points.append((eps_acc, float(ovl)))
    if not points:
        raise ValidationError("no usable (eps_acc, r_ovl) points in the inputs")
    fit = fit_k0(points)
    payload = {
        "k0": fit.k0,
        "r_squared": fit.r_squared,
        "n_excluded": fit.n_excluded,
        "n_skipped_files": skipped,
        "points": [
            {
                "eps_acc": x,
                "r_ovl": r,
                "log2_residual": float(-np.log2(r) - fit.k0 * x),
            }
            for x, r in fit.points
        ],
    }
    _write_json(args.out, payload)
    _write_manifest(args, inputs=list(args.results), outputs=[args.out])
    print(f"k0={fit.k0:.6f} r_squared={fit.r_squared:.4f} excluded={fit.n_excluded}")
    return _EXIT_OK


def _cmd_hqc(args) -> int:
    n_1q, n_2q = gate_counts(args.n, args.p)
    n_m = args.n if args.n_m is None else args.n_m
    cost = hqc_cost(n_1q, n_2q, n_m, args.shots)
    print(
        f"n={args.n} p={args.p}: n_1q={n_1q} n_2q={n_2q} n_m={n_m} "
        f"shots={args.shots} hqc={cost:.2f}"
    )
    if args.out is not None:
        _write_json(
            args.out,
            {
                "n": args.n,
                "p": args.p,
                "n_1q": n_1q,
                "n_2q": n_2q,
                "n_m": n_m,
                "shots": args.shots,
                "hqc": cost,
            },
        )
        _write_manifest(args, inputs=[], outputs=[args.out])
    return _EXIT_OK


def _cmd_replay(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
        argv = manifest["argv"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise ValidationError(f"cannot replay {args.manifest}: {exc}") from exc
    if not isinstance(argv, list) or not argv:
        raise ValidationError(f"{args.manifest} records no argv to replay")
    # read before the re-run, which writes the manifest anew
    inputs = manifest.get("inputs", {})
    outputs = manifest.get("outputs", {})
    by_schema = manifest.get("compared_by_schema", {})
    if not all(isinstance(d, dict) for d in (inputs, outputs, by_schema)):
        raise ValidationError(f"{args.manifest} records no input and output digests")
    recorded = manifest.get("version")
    if recorded != __version__:
        print(
            f"warning: {args.manifest} was written by lrqbench {recorded}, this is "
            f"{__version__}; outputs may differ from the recorded digests",
            file=sys.stderr,
        )
    for path, digest in inputs.items():
        if not Path(path).is_file():
            raise ValidationError(f"cannot replay {args.manifest}: input {path} is missing")
        if _sha256(Path(path)) != digest:
            raise ValidationError(
                f"cannot replay {args.manifest}: input {path} does not match its recorded sha256"
            )
    code = main([str(a) for a in argv])
    if code != _EXIT_OK:
        return code
    for path, digest in outputs.items():
        out = Path(path)
        if not out.is_file():
            raise ValidationError(f"replay of {args.manifest}: output {path} is missing")
        if path in by_schema:
            if _csv_schema(out) != by_schema[path]:
                raise ValidationError(
                    f"replay of {args.manifest}: output {path} does not match its recorded "
                    "header and row count"
                )
        elif _sha256(out) != digest:
            raise ValidationError(
                f"replay of {args.manifest}: output {path} does not match its recorded sha256"
            )
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_seed(parser: argparse.ArgumentParser) -> None:
    """``--seed``, for the subcommands that draw random numbers."""
    parser.add_argument("--seed", type=int, default=0, help="seed for every derived stream")


def _add_threads(parser: argparse.ArgumentParser) -> None:
    """``--threads``, for the subcommands that run work on threads."""
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads (default: env LRQBENCH_THREADS, else 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrqbench",
        description="Linear-ramp QAOA MaxCut simulation and verification toolkit",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (python {sys.version.split()[0]}, numpy {np.__version__})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a weighted MaxCut instance")
    p_gen.add_argument("--n", type=int, required=True, help="number of vertices")
    p_gen.add_argument("--out", type=Path, required=True, help="instance JSON path")
    p_gen.add_argument(
        "--solve-limit",
        type=int,
        default=24,
        help="largest n solved exactly; above this the optimal cut is omitted",
    )
    _add_seed(p_gen)
    _add_threads(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    p_sim = sub.add_parser("simulate", help="run the circuit for an instance")
    p_sim.add_argument("--instance", type=Path, required=True)
    p_sim.add_argument("--out", type=Path, required=True, help="results JSON path")
    p_sim.add_argument("--p", type=int, default=3, help="circuit depth")
    p_sim.add_argument("--delta", type=float, default=0.2, help="both ramp amplitudes")
    p_sim.add_argument("--delta-beta", type=float, default=None)
    p_sim.add_argument("--delta-gamma", type=float, default=None)
    p_sim.add_argument("--mode", choices=("noiseless", "noisy"), default="noiseless")
    p_sim.add_argument("--shots", type=int, default=100, help="shots (per trajectory when noisy)")
    p_sim.add_argument("--shards", type=int, default=1, help="shard count (power of two)")
    p_sim.add_argument("--precision", choices=("fp32", "fp64"), default="fp32")
    p_sim.add_argument("--epsilon", type=float, default=0.0, help="two-qubit depolarizing rate")
    p_sim.add_argument("--trajectories", type=int, default=1)
    p_sim.add_argument(
        "--ideal-shots",
        type=int,
        default=None,
        help="estimate the ideal baseline from this many shots instead of exactly",
    )
    p_sim.add_argument("--dump-state", type=Path, default=None, help="binary statevector dump")
    p_sim.add_argument("--memory-bytes", type=int, default=None, help="statevector memory budget")
    _add_seed(p_sim)
    _add_threads(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cls = sub.add_parser("classify", help="classify measured shots into a regime")
    p_cls.add_argument("--qpu", type=Path, required=True, help="results JSON with bitstrings")
    p_cls.add_argument("--instance", type=Path, required=True)
    p_cls.add_argument("--out", type=Path, required=True, help="report JSON path")
    p_cls.add_argument("--noiseless", type=Path, default=None, help="noiseless results JSON")
    p_cls.add_argument("--random-pool-size", type=int, default=10_000)
    p_cls.add_argument("--n-s", type=int, default=10, help="subsample size")
    p_cls.add_argument("--repeats", type=int, default=100)
    p_cls.add_argument("--replacement", action="store_true", help="subsample with replacement")
    p_cls.add_argument(
        "--kde-out",
        type=Path,
        default=None,
        help="write the density of random-baseline subsample means as CSV",
    )
    _add_seed(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    p_bench = sub.add_parser("bench", help="timing sweeps for the sharded engine")
    p_bench.add_argument("--mode", choices=("strong", "size"), default="strong")
    p_bench.add_argument("--out", type=Path, required=True, help="timing CSV path")
    p_bench.add_argument("--nq", type=int, default=None, help="qubits (strong mode)")
    p_bench.add_argument("--shards", default=None, help="comma-separated shard counts (strong mode; default 1,2,4)")
    p_bench.add_argument("--nq-range", type=str, default=None, help="LO:HI qubit range (size mode)")
    p_bench.add_argument("--nq-local", type=int, default=None, help="local qubits per shard (size mode)")
    p_bench.add_argument("--p", type=int, default=3)
    p_bench.add_argument("--delta", type=float, default=0.2)
    p_bench.add_argument("--delta-beta", type=float, default=None)
    p_bench.add_argument("--delta-gamma", type=float, default=None)
    p_bench.add_argument("--repeat", type=int, default=1)
    p_bench.add_argument("--precision", choices=("fp32", "fp64"), default="fp32")
    p_bench.add_argument("--memory-bytes", type=int, default=None)
    _add_seed(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_fit = sub.add_parser("fitnoise", help="fit the overlap decay constant")
    p_fit.add_argument("results", type=Path, nargs="+", help="noisy results JSON files")
    p_fit.add_argument("--out", type=Path, required=True, help="fit JSON path")
    p_fit.set_defaults(func=_cmd_fitnoise)

    p_hqc = sub.add_parser("hqc", help="credit cost of a hypothetical hardware job")
    p_hqc.add_argument("--n", type=int, required=True)
    p_hqc.add_argument("--p", type=int, default=3)
    p_hqc.add_argument("--shots", type=int, default=100)
    p_hqc.add_argument("--n-m", type=int, default=None, help="measured qubits (default: n)")
    p_hqc.add_argument("--out", type=Path, default=None, help="optional JSON output")
    p_hqc.set_defaults(func=_cmd_hqc)

    p_rep = sub.add_parser("replay", help="check a manifest's inputs, re-run its argv, then check its outputs")
    p_rep.add_argument("manifest", type=Path)
    p_rep.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return _EXIT_CAPACITY
    except (StateError, AbortedRunError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
