"""Outside-in tracing of the omlab layers.

The tracer never edits the program.  For the duration of one op it replaces
the module attributes that callers resolve (``omlab.pbr.find_feasible``,
``omlab.cli.reproduction_check``, ...) with wrappers, and puts the originals
back afterwards.  A layer is a module of the ``omlab`` package.

* Every public function of every layer except ``exact`` is wrapped.  A call
  is counted always; it is recorded as a span when it crosses a layer
  boundary, or when its name is in ``ALWAYS_SPANNED`` because a metric needs
  its time even when a function of its own layer calls it.
* ``ExactComplex`` arithmetic is only counted (``exact.ops``): a span around
  each of these micro-calls would cost more than the call.

Spans are tuples (id, parent, op id, name, start, end, attrs) kept in memory
and written out when the run ends.  Self time is a span's duration minus the
durations of its child spans; a layer's busy time is the summed duration of
its outermost spans, so time in callees of other layers is included.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import itertools
import json
import pkgutil
import statistics
import time
from collections import Counter, defaultdict

ALWAYS_SPANNED = frozenset({
    "cli.run",
    "simplex.find_feasible",
    "pbr.solve_feasibility",
    "pbr.build_pbr_scenario",
    "pbr.PbrScenario.born_table",
    "pbr.replay_witness",
    "pbr.chsh_gap_demo",
    "quantum.born_probability",
    "models.reproduction_check",
    "hardy.hardy_verdict",
    "hardy.derive_zero_probability_facts",
    "reports.emit",
})

# Methods are wrapped on their class, which is where callers resolve them.
METHODS = ("pbr.PbrScenario.born_table",)

EXACT_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                    "__rmul__", "__neg__", "__truediv__", "conjugate", "inverse",
                    "abs2")

# Per-op counters that must repeat exactly for one argv on one commit.
EXACT_COUNTERS = {
    "simplex.calls": "simplex.find_feasible",
    "pbr.points": "pbr.points",
    "pbr.lp_points": "pbr.lp_points",
    "exact.ops": "exact.ops",
    "reports.bytes": "reports.bytes",
}


def _observe_lp(tracer, bound, result):
    args = bound.arguments
    rows = len(args.get("equalities", ())) + len(args.get("inequalities", ()))
    if any(name == "pbr.solve_feasibility" for _, _, name in tracer.stack):
        tracer.counts["pbr.lp_points"] += 1
    return {"vars": args["n_vars"], "rows": rows, "feasible": bool(result.feasible)}


def _observe_verdict(tracer, bound, result):
    tracer.counts["pbr.points"] += result.tested_points
    return {"points": result.tested_points}


def _observe_emit(tracer, bound, result):
    # The wall-clock value's digits vary run to run; leave them out so the
    # byte count repeats exactly.
    wall = json.dumps(bound.arguments["report"].wall_clock_s)
    size = len(result.encode("utf-8")) - len(wall)
    tracer.counts["reports.bytes"] += size
    return {"bytes": size}


OBSERVERS = {
    "simplex.find_feasible": _observe_lp,
    "pbr.solve_feasibility": _observe_verdict,
    "reports.emit": _observe_emit,
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self, package):
        self.spans: list = []
        self.stack: list = []          # (span id, layer, name) of open spans
        self.counts: Counter = Counter()   # the current op's counts
        self.totals: Counter = Counter()   # summed over every traced op
        self.op_id = None
        self._ids = itertools.count()
        self._patches: list = []       # (owner, attribute, wrapper, original)
        self._prepare(package)

    # -- installation ------------------------------------------------------

    def _prepare(self, package) -> None:
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for _, name, _ in pkgutil.iter_modules(package.__path__)}
        wrappers = {}
        for layer, mod in modules.items():
            if layer == "exact":
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self._span_wrapper(layer, f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, wrappers[obj], obj))
        for dotted in METHODS:
            layer, cls_name, meth = dotted.split(".")
            cls = getattr(modules[layer], cls_name, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(orig):
                self._patches.append((cls, meth, self._span_wrapper(layer, dotted, orig), orig))
        exact_cls = modules["exact"].ExactComplex
        for meth in EXACT_ARITHMETIC:
            orig = vars(exact_cls).get(meth)
            if orig is not None:
                self._patches.append((exact_cls, meth, self._count_wrapper(orig), orig))

    def _count_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts["exact.ops"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, layer: str, name: str, fn):
        tracer = self
        always = name in ALWAYS_SPANNED
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            stack = tracer.stack
            if not always and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, layer, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.op_id, name, start, end,
                                     {"error": True}))
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = None
            if observe is not None:
                attrs = observe(tracer, signature.bind(*args, **kwargs), result)
            tracer.spans.append((sid, parent, tracer.op_id, name, start, end, attrs))
            return result
        return wrapper

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Trace one op: wrappers are in place only inside this block."""
        self.counts = Counter()
        self.op_id = op_id
        for owner, attr, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)
        sid = next(self._ids)
        self.stack.append((sid, "bench", "op"))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            for owner, attr, _, orig in self._patches:
                setattr(owner, attr, orig)
            self.spans.append((sid, None, op_id, "op", start, end, None))
            self.totals.update(self.counts)

    def op_counters(self) -> dict:
        """The exact counters of the op traced last."""
        return {metric: self.counts[key] for metric, key in EXACT_COUNTERS.items()}

    # -- results -----------------------------------------------------------

    def write_spans(self, path: str, t0: float) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, parent, op_id, name, start, end, attrs in self.spans:
                row = {"id": sid, "parent": parent, "op": op_id, "name": name,
                       "start": start - t0, "end": end - t0}
                if attrs:
                    row.update(attrs)
                fh.write(json.dumps(row) + "\n")

    def per_layer(self, passes: int) -> dict:
        """Per-layer metrics, as totals per pass of the op list."""
        by_id = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        for s in self.spans:
            if s[1] is not None:
                child_time[s[1]] += s[5] - s[4]

        def outermost(span) -> bool:
            layer, parent = _layer(span[3]), span[1]
            while parent is not None:
                anc = by_id[parent]
                if _layer(anc[3]) == layer:
                    return False
                parent = anc[1]
            return True

        busy, entries = defaultdict(float), Counter()
        durations = defaultdict(list)
        attrs = defaultdict(list)
        self_time = defaultdict(float)
        for s in self.spans:
            sid, _, _, name, start, end, extra = s
            durations[name].append(end - start)
            self_time[name] += end - start - child_time[sid]
            if extra:
                attrs[name].append(extra)
            if name != "op" and outermost(s):
                busy[_layer(name)] += end - start
                entries[_layer(name)] += 1

        def total(*names) -> float:
            return sum(sum(durations[n]) for n in names)

        def p50_ms(name) -> float:
            return 1000 * statistics.median(durations[name]) if durations[name] else 0.0

        lps = attrs["simplex.find_feasible"]
        n_lp = len(lps)
        points = self.totals["pbr.points"]
        lp_points = self.totals["pbr.lp_points"]
        op_wall = total("op")
        emits = attrs["reports.emit"]
        per_pass = {
            "simplex.calls": self.totals["simplex.find_feasible"],
            "simplex.busy_s": busy["simplex"],
            "pbr.verdicts": self.totals["pbr.solve_feasibility"],
            "pbr.points": points,
            "pbr.lp_points": lp_points,
            "pbr.self_s": self_time["pbr.solve_feasibility"],
            "pbr.scenario_s": total("pbr.build_pbr_scenario", "pbr.PbrScenario.born_table"),
            "pbr.replay_s": total("pbr.replay_witness"),
            "pbr.chsh_s": total("pbr.chsh_gap_demo"),
            "quantum.born_calls": self.totals["quantum.born_probability"],
            "quantum.busy_s": busy["quantum"],
            "exact.ops": self.totals["exact.ops"],
            "reports.emit_s": total("reports.emit"),
            "reports.bytes": self.totals["reports.bytes"],
            "reports.emit_failed": sum(1 for a in emits if a.get("error")),
            "hardy.verdicts": self.totals["hardy.hardy_verdict"],
            "hardy.busy_s": busy["hardy"],
            "hardy.facts_s": total("hardy.derive_zero_probability_facts"),
            "models.reproduction_s": total("models.reproduction_check"),
            "toy.busy_s": busy["toy"],
            "gaussian.calls": entries["gaussian"],
            "gaussian.busy_s": busy["gaussian"],
            "cli.run_s": total("cli.run"),
            "op.wall_s": op_wall,
            "trace.spans": len(self.spans),
        }
        metrics = {name: value / passes for name, value in per_pass.items()}
        metrics.update({
            "simplex.call_ms_p50": p50_ms("simplex.find_feasible"),
            "simplex.feasible_frac": (sum(a["feasible"] for a in lps) / n_lp
                                      if n_lp else 0.0),
            "simplex.vars_mean": statistics.fmean(a["vars"] for a in lps) if n_lp else 0.0,
            "simplex.rows_mean": statistics.fmean(a["rows"] for a in lps) if n_lp else 0.0,
            "simplex.busy_share": busy["simplex"] / op_wall,
            "pbr.presolve_frac": (points - lp_points) / points if points else 0.0,
            "reports.emit_ms_p50": p50_ms("reports.emit"),
        })
        return metrics
