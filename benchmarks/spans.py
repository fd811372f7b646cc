"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces every public function name in the namespace of
each ``lrqbench`` module with a wrapper that records one span per call.
Names are wrapped where the calling module resolves them, so
``lrqbench.cli.run_circuit`` and ``lrqbench.engine.cut_values_range`` get
their own wrappers and cross-module calls inside the package are traced
without editing it.  A span's ``layer`` is the module that defines the
function; its ``caller`` is the module whose namespace the call went
through.

Spans nest through a per-thread stack of parent ids, stay in memory, and
are written out once at the end.  A span's self time is its duration
minus the durations of its direct children.

``layer_metrics`` turns the spans of the traced iterations into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "problem", "circuit", "engine", "noise", "sharded", "stats", "rng")

# Called once per shot or per bit; a span each would cost more than the
# work, so their time stays in the caller's self time.
PER_ELEMENT = frozenset({"index_to_bitstring", "bitstring_to_index", "as_index"})

SPAN_FORMAT = "lrqbench-spans/1"


class Span:
    __slots__ = ("id", "parent", "trace", "name", "caller", "thread", "start", "end", "counts")

    def __init__(self, span_id, parent, trace, name, caller, thread, start):
        self.id = span_id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.caller = caller
        self.thread = thread
        self.start = start
        self.end = start
        self.counts = None

    @property
    def layer(self) -> str:
        module = self.name.rsplit(".", 1)[0]
        return module.rsplit(".", 1)[-1] if module.startswith("lrqbench.") else "bench"

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "trace": self.trace,
            "name": self.name,
            "layer": self.layer,
            "caller": self.caller,
            "thread": self.thread,
            "start_ns": self.start,
            "end_ns": self.end,
            "counts": self.counts,
        }


class Patches:
    """Module attributes replaced for the length of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for module, name, old in reversed(self._saved):
            setattr(module, name, old)
        self._saved.clear()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, caller: str, counter=None):
        """Wrapper recording a span per call; ``counter(result, args, kwargs)``
        runs after the span closes and returns the span's counts."""
        name = f"{func.__module__}.{func.__name__}"
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                next(tracer._ids),
                stack[-1].id if stack else None,
                tracer.trace_id,
                name,
                caller,
                threading.get_ident(),
                time.perf_counter_ns(),
            )
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                span.counts = counter(result, args, kwargs)
            return result

        return traced

    def install(self, patches: Patches, modules: dict) -> None:
        """Wrap every public package function in every given module namespace."""
        for caller, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and attr not in PER_ELEMENT
                    and value.__module__.startswith("lrqbench.")
                ):
                    qualified = f"{value.__module__}.{value.__name__}"
                    patches.set(module, attr, self.wrap(value, caller, COUNTERS.get(qualified)))

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"format": SPAN_FORMAT, **header}) + "\n")
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict()) + "\n")


# ---------------------------------------------------------------------------
# counts taken at span boundaries


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _itemsize(precision) -> int:
    return 8 if str(getattr(precision, "value", precision) or "fp32").lower() == "fp32" else 16


def _cli_counts(result, args, kwargs) -> dict:
    """Bytes of every file a subcommand wrote, read back from its manifest."""
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    if "--out" not in argv:
        return {"bytes_written": 0}
    manifest = Path(argv[argv.index("--out") + 1] + ".manifest.json")
    if not manifest.exists():
        return {"bytes_written": 0}
    outputs = json.loads(manifest.read_text()).get("outputs", {})
    written = manifest.stat().st_size + sum(Path(p).stat().st_size for p in outputs)
    return {"bytes_written": written}


def _gate_kinds(circuit) -> tuple[int, int]:
    two = sum(1 for g in circuit.gates if g.kind == "RZZ")
    return len(circuit.gates) - two, two


def _run_circuit_counts(sv, args, kwargs) -> dict:
    circuit = _arg(args, kwargs, 0, "circuit")
    return {"gates": len(circuit.gates), "amps": int(sv.amps.size), "state_bytes": int(sv.amps.nbytes)}


def _ensemble_counts(result, args, kwargs) -> dict:
    circuit = _arg(args, kwargs, 0, "circuit")
    cfg = _arg(args, kwargs, 1, "cfg")
    itemsize = _itemsize(_arg(args, kwargs, 3, "precision"))
    return {
        "trajectories": cfg.trajectories,
        "gates": len(circuit.gates),
        "n_2q": _gate_kinds(circuit)[1],
        "epsilon": cfg.epsilon,
        "state_bytes": itemsize << circuit.num_qubits,
    }


def _sharded_counts(result, args, kwargs) -> dict:
    sv, record = result
    return {
        "shards": record.num_shards,
        "wall_s": record.wall_seconds,
        "compute_s": record.compute_seconds,
        "exchange_s": record.exchange_seconds,
        "amps_exchanged": record.amps_exchanged,
        "state_bytes": int(sv.amps.nbytes),
    }


COUNTERS = {
    "lrqbench.cli.main": _cli_counts,
    "lrqbench.problem.solve_instance": lambda r, a, k: {"states": 1 << a[0].num_vertices},
    "lrqbench.problem.shot_ratios": lambda r, a, k: {"evals": int(r.size)},
    "lrqbench.problem.cut_values_range": lambda r, a, k: {"evals": int(r.size)},
    "lrqbench.circuit.build_circuit": lambda r, a, k: dict(zip(("gates_1q", "gates_2q"), _gate_kinds(r))),
    "lrqbench.engine.run_circuit": _run_circuit_counts,
    "lrqbench.noise.run_noisy_ensemble": _ensemble_counts,
    "lrqbench.sharded.run_circuit_sharded": _sharded_counts,
    "lrqbench.stats.mean_of_means": lambda r, a, k: {"repeats": _arg(a, k, 1, "cfg").repeats},
}


# ---------------------------------------------------------------------------
# per-layer metrics

MIB = float(1 << 20)


def _short(span: Span) -> str:
    return span.name.removeprefix("lrqbench.")


def layer_metrics(spans: list[Span], iterations: int, rss_growth_mib: float) -> dict[str, float]:
    """Per-iteration layer metrics from the spans of ``iterations`` traced
    iterations.  Layers a workload never enters report zero."""
    by_id = {s.id: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end - s.start

    def ancestors(span: Span):
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
            yield span

    def outermost(names: set[str], where=lambda s: True) -> list[Span]:
        """Spans of the named functions not nested inside another of them."""
        return [
            s
            for s in spans
            if _short(s) in names
            and where(s)
            and not any(_short(a) in names for a in ancestors(s))
        ]

    def seconds(names: set[str], where=lambda s: True) -> float:
        return sum(s.seconds for s in outermost(names, where)) / iterations

    def count(spans_: list[Span], key: str) -> int:
        return sum(s.counts[key] for s in spans_ if s.counts) // iterations

    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        if s.layer in LAYERS:
            m[f"{s.layer}.self_s"] += (s.end - s.start - child_ns[s.id]) * 1e-9 / iterations

    mains = [s for s in spans if _short(s) == "cli.main" and s.parent is None]
    m["cli.bytes_written"] = count(mains, "bytes_written")
    m["cli.invocations"] = len(mains) // iterations

    from_engine = lambda s: _short(s) != "problem.cut_values_range" or s.caller == "lrqbench.engine"
    cut_names = {"problem.shot_ratios", "problem.cut_values_range"}
    m["problem.solve_s"] = seconds({"problem.solve_instance"})
    m["problem.solve_states"] = count(outermost({"problem.solve_instance"}), "states")
    m["problem.cut_eval_s"] = seconds(cut_names, from_engine)
    m["problem.cut_evals"] = count(outermost(cut_names, from_engine), "evals")
    m["problem.generate_s"] = seconds({"problem.generate_instance"})

    builds = outermost({"circuit.build_circuit"})
    m["circuit.build_s"] = seconds({"circuit.build_circuit"})
    m["circuit.gates_1q"] = count(builds, "gates_1q")
    m["circuit.gates_2q"] = count(builds, "gates_2q")

    runs = outermost({"engine.run_circuit"})
    run_s = seconds({"engine.run_circuit"})
    gate_amps = sum(s.counts["gates"] * s.counts["amps"] for s in runs) // iterations
    bytes_computed = sum(2 * s.counts["gates"] * s.counts["state_bytes"] for s in runs) // iterations
    m["engine.run_s"] = run_s
    m["engine.expect_s"] = seconds({"engine.exact_expected_r", "engine.expected_r_from_probs"})
    m["engine.sample_s"] = seconds({"engine.sample", "engine.draw_indices"})
    m["engine.gate_amps"] = gate_amps
    m["engine.bytes_computed"] = bytes_computed
    m["engine.gbps_computed"] = bytes_computed / run_s / 1e9 if run_s else 0.0
    m["engine.state_mib"] = max((s.counts["state_bytes"] for s in runs), default=0) / MIB

    ensembles = outermost({"noise.run_noisy_ensemble"})
    ensemble_s = seconds({"noise.run_noisy_ensemble"})
    trajectories = sum(s.counts["trajectories"] for s in ensembles)
    traj_gates = sum(s.counts["trajectories"] * s.counts["gates"] for s in ensembles) / iterations
    m["noise.ensemble_s"] = ensemble_s
    m["noise.us_per_traj_gate"] = ensemble_s * 1e6 / traj_gates if traj_gates else 0.0
    m["noise.trajectories"] = trajectories // iterations
    m["noise.paulis_expected"] = sum(
        15.0 / 16.0 * c["epsilon"] * c["n_2q"] * c["trajectories"] for c in (s.counts for s in ensembles)
    ) / iterations
    m["noise.zero_fire_frac"] = (
        sum(
            c["trajectories"] * (1.0 - 15.0 / 16.0 * c["epsilon"]) ** c["n_2q"]
            for c in (s.counts for s in ensembles)
        )
        / trajectories
        if trajectories
        else 0.0
    )
    m["noise.fit_s"] = seconds({"noise.fit_k0"})

    sharded = outermost({"sharded.run_circuit_sharded"})
    for shards in (1, 2):
        mine = [s for s in sharded if s.counts["shards"] == shards]
        m[f"sharded.run_s.s{shards}"] = sum(s.seconds for s in mine) / iterations
        m[f"sharded.wait_s.s{shards}"] = sum(
            s.counts["wall_s"] - s.counts["compute_s"] - s.counts["exchange_s"] for s in mine
        ) / iterations
        if shards == 2:
            m["sharded.compute_s.s2"] = sum(s.counts["compute_s"] for s in mine) / iterations
            m["sharded.exchange_s.s2"] = sum(s.counts["exchange_s"] for s in mine) / iterations
            m["sharded.amps_exchanged.s2"] = count(mine, "amps_exchanged")
    s1, s2 = m["sharded.run_s.s1"], m["sharded.run_s.s2"]
    m["sharded.speedup_s2"] = s1 / s2 if s2 else 0.0

    m["stats.classify_s"] = seconds({"stats.classify"})
    m["stats.uniform_s"] = seconds({"stats.uniform_sampler"})
    m["stats.resample_repeats"] = count(outermost({"stats.mean_of_means"}), "repeats")

    rng_names = {"rng.derive_rng", "rng.derive_seed"}
    m["rng.streams"] = len(outermost(rng_names)) // iterations
    m["rng.s"] = seconds(rng_names)

    state_mib = max((s.counts["state_bytes"] for s in runs + ensembles + sharded), default=0) / MIB
    m["mem.rss_growth_mib"] = rss_growth_mib
    m["mem.growth_over_state"] = rss_growth_mib / state_mib if state_mib else 0.0
    m["trace.spans"] = len(spans) // iterations
    return m
