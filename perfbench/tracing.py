"""Boundary tracing: wrap the package's public functions from outside.

``Tracer.install`` rebinds each traced function at every site that holds it:
the defining module, every module of the package that imported it by name,
and the ``identity_suite.CHECK_GROUPS`` table.  Spans (id, name, start, end,
parent, thread) stay in memory and are written as JSON lines when the pass
ends.  Parents are tracked per thread because ``run_all`` runs its check
groups on a thread pool; a span opened on a thread with no open span of its
own is parented to the innermost open span of the main thread.

``layer_metrics`` turns one pass's spans and counters into per-layer
numbers.  It runs in the benchmark's parent process and imports nothing
from the package.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from fractions import Fraction

#: identity_suite.CHECK_GROUPS keys, which are also the group span names.
GROUPS = ("thm2.2", "thm2.3", "thm2.5", "thm2.6", "lemma-a", "beta-eq", "inversion")

#: (module, attribute) pairs whose calls become spans named "<module>.<attribute>".
FUNCTIONS = (
    ("identity_suite", "binomial_inverse"),
    ("identity_suite", "generic_check"),
    ("identity_suite", "run_all"),
    ("beta_engine", "derivative_F"),
    ("beta_engine", "alt_power_sum"),
    ("beta_engine", "beta_F"),
    ("beta_engine", "bell_expansion"),
    ("harmonic_core", "harmonic_vector"),
    ("harmonic_core", "harmonic_function"),
    ("series_lab", "lemma_c_partial"),
    ("series_lab", "theorem_2_6_series"),
    ("series_lab", "corollary_2_4_partial"),
    ("series_lab", "hurwitz_partial"),
    ("float_oracle", "log_moment_quadrature"),
    ("float_oracle", "cube_monte_carlo"),
    ("reporting", "dumps"),
    ("cli", "run"),
)

SERIES_TARGETS = ("lemma_c_partial", "theorem_2_6_series", "corollary_2_4_partial", "hurwitz_partial")

#: Functions reported as "<name>.calls" and "<name>.self_s".
SELF_TIMED = (
    "identity_suite.binomial_inverse",
    "identity_suite.generic_check",
    "beta_engine.derivative_F",
    "beta_engine.alt_power_sum",
    "beta_engine.beta_F",
    "beta_engine.BellExpansion.evaluate",
    "harmonic_core.harmonic_vector",
    "harmonic_core.harmonic_function",
    "float_oracle.log_moment_quadrature",
    "float_oracle.cube_monte_carlo",
    "reporting.dumps",
    "cli.run",
)

#: Package modules whose cumulative ``-X importtime`` figure is cli.import.<module>_s.
IMPORT_MODULES = (
    "harmonic_beta",
    "harmonic_beta.harmonic_core",
    "harmonic_beta.beta_engine",
    "harmonic_beta.identity_suite",
    "harmonic_beta.series_lab",
    "harmonic_beta.float_oracle",
    "harmonic_beta.reporting",
    "harmonic_beta.cli",
)
#: Third-party packages reported as the summed self time of all their modules,
#: since scipy loads submodules lazily and ``scipy.integrate`` gets no line.
IMPORT_PACKAGES = ("numpy", "scipy")


def _import_metric(module: str) -> str:
    return f"cli.import.{module.removeprefix('harmonic_beta.')}_s"


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.counters: Counter = Counter()
        self.bell_orders: set[int] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[tuple[int, str]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else (0, "")
            span_id = next(self._ids)
            stack.append((span_id, name))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(
                    (span_id, name, start, end, parent[0], threading.get_ident())
                )
            if on_result is not None:
                on_result(args, kwargs, result, parent[1])
            return result

        return traced

    # -- counters recorded at the boundary ---------------------------------

    def _on_bell(self, args, kwargs, result, parent) -> None:
        order = args[0] if args else kwargs["r"]
        with self._lock:
            self.bell_orders.add(order)

    def _on_dumps(self, args, kwargs, result, parent) -> None:
        self.count("reporting.output_bytes", len(result.encode()))

    def _on_quadrature(self, args, kwargs, result, parent) -> None:
        self.count("float_oracle.evaluations", result.evaluations)

    def _on_monte_carlo(self, args, kwargs, result, parent) -> None:
        samples = args[2] if len(args) > 2 else kwargs["samples"]
        self.count("float_oracle.samples", samples)

    def _on_group(self, group: str):
        def record(args, kwargs, result, parent) -> None:
            self.count(f"identity_suite.group.{group}.points", len(result))

        return record

    def _on_series(self, args, kwargs, result, parent) -> None:
        estimates = result if isinstance(result, tuple) else (result,)
        if not parent.startswith("series_lab."):
            # theorem_2_6_series returns the hurwitz_partial estimate it nests
            self.count("series_lab.terms", sum(e.N for e in estimates))
        for estimate in estimates:
            partial = estimate.partial
            if isinstance(partial, Fraction):
                with self._lock:
                    for key, value in (
                        ("series_lab.partial_num_bits", partial.numerator.bit_length()),
                        ("series_lab.partial_den_bits", partial.denominator.bit_length()),
                    ):
                        self.counters[key] = max(self.counters[key], value)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function at every site in the loaded package."""
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "harmonic_beta" or name.startswith("harmonic_beta.")
        ]
        hooks = {
            "beta_engine.bell_expansion": self._on_bell,
            "reporting.dumps": self._on_dumps,
            "float_oracle.log_moment_quadrature": self._on_quadrature,
            "float_oracle.cube_monte_carlo": self._on_monte_carlo,
        }
        hooks.update({f"series_lab.{t}": self._on_series for t in SERIES_TARGETS})
        targets = []
        for module_name, attr in FUNCTIONS:
            module = sys.modules.get(f"harmonic_beta.{module_name}")
            if module is not None and hasattr(module, attr):
                name = f"{module_name}.{attr}"
                targets.append((getattr(module, attr), name, hooks.get(name)))
        suite = sys.modules.get("harmonic_beta.identity_suite")
        groups = getattr(suite, "CHECK_GROUPS", {})
        for group in GROUPS:
            if group in groups:
                name = f"identity_suite.group.{group}"
                targets.append((groups[group], name, self._on_group(group)))
        for original, name, hook in targets:
            traced = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
            for key, value in list(groups.items()):
                if value is original:
                    groups[key] = traced
        engine = sys.modules.get("harmonic_beta.beta_engine")
        expansion = getattr(engine, "BellExpansion", None)
        if expansion is not None and hasattr(expansion, "evaluate"):
            expansion.evaluate = self.wrap(
                "beta_engine.BellExpansion.evaluate", expansion.evaluate
            )

    def dump(self, path: str) -> None:
        """Write spans as JSON lines, then one trailing line with the counters."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, thread in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "thread": thread}
                    )
                    + "\n"
                )
            counters = dict(self.counters)
            counters["beta_engine.bell_expansion.distinct_orders"] = len(self.bell_orders)
            handle.write(json.dumps({"counters": counters}) + "\n")


# -- analysis (parent process) ------------------------------------------------


def read_trace(path: str) -> tuple[list[dict], dict]:
    spans: list[dict] = []
    counters: dict = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
            else:
                spans.append(record)
    return spans, counters


def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: span["end"] - span["start"]
        - covered_ns(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    def timed(*functions: str) -> list[tuple[str, str, str]]:
        return [row for fn in functions
                for row in ((f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower"))]

    rows = timed("identity_suite.binomial_inverse", "identity_suite.generic_check")
    for group in GROUPS:
        rows += [(f"identity_suite.group.{group}.s", "s", "lower"),
                 (f"identity_suite.group.{group}.points", "count", "higher")]
    rows += [("identity_suite.run_all.overlap", "ratio", "lower"),
             ("identity_suite.run_all.s", "s", "lower")]
    rows += timed("beta_engine.derivative_F", "beta_engine.alt_power_sum", "beta_engine.beta_F",
                  "beta_engine.BellExpansion.evaluate")
    rows += [("beta_engine.bell_expansion.calls", "count", "lower"),
             ("beta_engine.bell_expansion.hit_ratio", "ratio", "higher"),
             ("beta_engine.bell_expansion.distinct_orders", "count", "lower")]
    rows += timed("harmonic_core.harmonic_vector", "harmonic_core.harmonic_function")
    rows += [(f"series_lab.{t}.s", "s", "lower") for t in SERIES_TARGETS]
    rows += [("series_lab.terms_per_s", "1/s", "higher"),
             ("series_lab.terms", "count", "higher"),
             ("series_lab.s", "s", "lower"),
             ("series_lab.partial_num_bits", "bit", "lower"),
             ("series_lab.partial_den_bits", "bit", "lower"),
             ("series_lab.bracket_width_rel", "ratio", "lower")]
    rows += timed("float_oracle.log_moment_quadrature")
    rows += [("float_oracle.evaluations", "count", "lower")]
    rows += timed("float_oracle.cube_monte_carlo")
    rows += [("float_oracle.samples_per_s", "1/s", "higher"),
             ("float_oracle.samples", "count", "higher"),
             ("float_oracle.quad_max_rel_err", "ratio", "lower"),
             ("float_oracle.mc_max_z", "ratio", "lower")]
    rows += timed("reporting.dumps")
    rows += [("reporting.output_bytes", "bytes", "lower")]
    rows += timed("cli.run")
    rows += [(_import_metric(m), "s", "lower") for m in IMPORT_MODULES + IMPORT_PACKAGES]
    rows += [("trace.coverage", "ratio", "higher"),
             ("trace.overhead", "ratio", "lower"),
             ("trace.traced_wall_s", "s", "lower"),
             ("trace.untraced_wall_s", "s", "lower")]
    return rows


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = _per_layer()


def layer_metrics(spans: list[dict], counters: dict, pass_wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass (trace.overhead and imports excluded)."""
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    span_ns: Counter = Counter()
    for span in spans:
        calls[span["name"]] += 1
        self_ns[span["name"]] += own[span["id"]]
        span_ns[span["name"]] += span["end"] - span["start"]
    out: dict[str, float] = {}
    for fn in SELF_TIMED:
        out[f"{fn}.calls"] = calls[fn]
        out[f"{fn}.self_s"] = self_ns[fn] / 1e9
    for group in GROUPS:
        name = f"identity_suite.group.{group}"
        out[f"{name}.s"] = span_ns[name] / 1e9
        out[f"{name}.points"] = counters.get(f"{name}.points", 0)
    group_ns = sum(span_ns[f"identity_suite.group.{g}"] for g in GROUPS)
    run_all_ns = span_ns["identity_suite.run_all"]
    out["identity_suite.run_all.s"] = run_all_ns / 1e9
    out["identity_suite.run_all.overlap"] = group_ns / run_all_ns if run_all_ns else 0.0

    bell_calls = calls["beta_engine.bell_expansion"]
    distinct = counters.get("beta_engine.bell_expansion.distinct_orders", 0)
    out["beta_engine.bell_expansion.calls"] = bell_calls
    out["beta_engine.bell_expansion.hit_ratio"] = 1 - distinct / bell_calls if bell_calls else 0.0
    out["beta_engine.bell_expansion.distinct_orders"] = distinct

    series_names = {f"series_lab.{t}" for t in SERIES_TARGETS}
    outer_ns = sum(
        span["end"] - span["start"]
        for span in spans
        if span["name"] in series_names
        and by_id.get(span["parent"], {}).get("name") not in series_names
    )
    for target in SERIES_TARGETS:
        out[f"series_lab.{target}.s"] = span_ns[f"series_lab.{target}"] / 1e9
    terms = counters.get("series_lab.terms", 0)
    out["series_lab.terms"] = terms
    out["series_lab.s"] = outer_ns / 1e9
    out["series_lab.terms_per_s"] = terms / (outer_ns / 1e9) if outer_ns else 0.0
    out["series_lab.partial_num_bits"] = counters.get("series_lab.partial_num_bits", 0)
    out["series_lab.partial_den_bits"] = counters.get("series_lab.partial_den_bits", 0)

    out["float_oracle.evaluations"] = counters.get("float_oracle.evaluations", 0)
    samples = counters.get("float_oracle.samples", 0)
    mc_ns = span_ns["float_oracle.cube_monte_carlo"]
    out["float_oracle.samples"] = samples
    out["float_oracle.samples_per_s"] = samples / (mc_ns / 1e9) if mc_ns else 0.0
    out["reporting.output_bytes"] = counters.get("reporting.output_bytes", 0)

    top = [(span["start"], span["end"]) for span in spans if span["parent"] == 0]
    inside = covered_ns(top, min(s for s, _ in top), max(e for _, e in top)) if top else 0
    out["trace.coverage"] = inside / (pass_wall_s * 1e9) if pass_wall_s else 0.0
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """cli.import.<module>_s from ``-X importtime`` output."""
    self_us: dict[str, int] = {}
    cumulative_us: dict[str, int] = {}
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header or another line
        name = parts[2].strip()
        self_us[name] = int(parts[0])
        cumulative_us[name] = int(parts[1])
    out = {_import_metric(m): cumulative_us.get(m, 0) / 1e6 for m in IMPORT_MODULES}
    for package in IMPORT_PACKAGES:
        total = sum(us for name, us in self_us.items()
                    if name == package or name.startswith(package + "."))
        out[_import_metric(package)] = total / 1e6
    return out
