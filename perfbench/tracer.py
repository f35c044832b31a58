"""Span tracer that measures mkdiv from outside, by wrapping its public calls.

Nothing inside ``src/mkdiv`` is instrumented.  :func:`install` wraps

* scipy's ``linear_sum_assignment`` and ``linprog`` on ``scipy.optimize``
  itself, before ``mkdiv`` is imported, so the oracle counts hold whether
  mkdiv imports scipy eagerly or lazily;
* class methods on the class that defines them (``Score.__call__``,
  ``ConvexGenerator.bregman``/``inv_dphi``, ``Distribution.quantile``,
  ``Functional.evaluate``, ``Expectile.residual``/``Shortfall.residual``),
  and on every subclass that overrides them;
* module functions, rebinding every ``mkdiv.*`` name bound to the original
  (``pairwise_mean`` is imported by name into five modules).

A target that no longer exists is reported as absent; its metrics read 0.

Each wrapped call records a span (name, start, end, parent).  Nested calls
of the same span name (``pairwise_mean`` calling ``pairwise_sum``, an
``OsbandScore`` calling its inner score) pass straight through, so counts
are of outermost calls.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

_clock = time.perf_counter


def _size(x) -> int:
    return int(np.size(x))


def _arg_size(args, kwargs, result):
    return _size(args[0]) if args else 0


def _self_arg_size(args, kwargs, result):
    return _size(args[1]) if len(args) > 1 else 0


def _result_size(args, kwargs, result):
    return _size(result)


def _text_size(args, kwargs, result):
    return len(result)


# (span name, module, class or None, attribute, element counter)
MKDIV_TARGETS = [
    ("transport.oracle", "mkdiv.transport", None, "oracle_optimal", None),
    ("transport.divergence", "mkdiv.transport", None, "mk_divergence", None),
    ("transport.certify", "mkdiv.transport", None, "certify_optimal_coupling", None),
    ("robust.solve", "mkdiv.robust", None, "solve_worst_case", None),
    ("robust.calibrate", "mkdiv.robust", None, "calibrate_lambda", None),
    ("robust.perturb", "mkdiv.robust", None, "perturbed_nodes", None),
    ("robust.choquet", "mkdiv.robust", None, "choquet", None),
    ("payoff.solve", "mkdiv.payoff", None, "cheapest_payoff", None),
    ("payoff.cost", "mkdiv.payoff", None, "payoff_cost", None),
    ("distributions.quantile", "mkdiv.distributions", "Distribution", "quantile", _self_arg_size),
    ("generators.bregman", "mkdiv.generators", "ConvexGenerator", "bregman", _result_size),
    ("generators.inv_dphi", "mkdiv.generators", "ConvexGenerator", "inv_dphi", _result_size),
    ("scores.eval", "mkdiv.scores", "Score", "__call__", _result_size),
    ("numerics.reduce", "mkdiv.numerics", None, "pairwise_sum", _arg_size),
    ("numerics.reduce", "mkdiv.numerics", None, "pairwise_mean", _arg_size),
    ("functionals.argmin", "mkdiv.functionals", None, "argmin_expected_score", None),
    ("functionals.axioms", "mkdiv.functionals", None, "check_axioms", None),
    ("functionals.evaluate", "mkdiv.functionals", "Functional", "evaluate", None),
    ("functionals.residual", "mkdiv.functionals", "Expectile", "residual", None),
    ("functionals.residual", "mkdiv.functionals", "Shortfall", "residual", None),
    ("cli.main", "mkdiv.cli", None, "main", None),
    ("cli.render", "mkdiv.cli", None, "canonical_json", _text_size),
    ("specs.parse", "mkdiv.specs", None, "parse_*", None),
]

SCIPY_TARGETS = [
    ("transport.lsa", "scipy.optimize", None, "linear_sum_assignment", None),
    ("transport.lp", "scipy.optimize", None, "linprog", None),
]


class Tracer:
    """In-memory span store with a stack of open spans (single thread)."""

    def __init__(self):
        self.absent: list[str] = []
        self.records: dict[str, float] = {}
        self.reset()

    def reset(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.elems: list[int] = []
        self._stack: list[int] = []

    def record_max(self, name: str, value: float):
        """Benchmark-side record (not a span), kept as a running maximum."""
        self.records[name] = max(self.records.get(name, 0.0), float(value))

    def wrap(self, name, fn, elems=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.names[stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.starts.append(_clock())
            tracer.ends.append(0.0)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.elems.append(0)
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.ends[idx] = _clock()
                stack.pop()
                if elems is not None and result is not None:
                    tracer.elems[idx] = elems(args, kwargs, result)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive ms, self ms and element count."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            s = out.setdefault(
                self.names[i], {"calls": 0, "ms": 0.0, "self_ms": 0.0, "elems": 0}
            )
            s["calls"] += 1
            s["ms"] += 1e3 * dur[i]
            s["self_ms"] += 1e3 * (dur[i] - child[i])
            s["elems"] += self.elems[i]
        return out

    def _enclosing(self, i: int, name: str) -> int:
        p = self.parents[i]
        while p >= 0 and self.names[p] != name:
            p = self.parents[p]
        return p

    def calib_evals(self) -> int:
        """``perturbed_nodes`` calls under a calibration span, infeasible
        attempts included (their span closes on the exception)."""
        return sum(
            1
            for i, name in enumerate(self.names)
            if name == "robust.perturb" and self._enclosing(i, "robust.calibrate") >= 0
        )

    def oracles_with_assignment(self) -> int:
        """Oracle calls that made at least one assignment solve."""
        return len(
            {
                self._enclosing(i, "transport.oracle")
                for i, name in enumerate(self.names)
                if name == "transport.lsa"
            }
            - {-1}
        )

    def dump(self, path: str, extra: dict):
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [
                index[self.names[i]],
                round(1e6 * (self.starts[i] - t0), 1),
                round(1e6 * (self.ends[i] - t0), 1),
                self.parents[i],
            ]
            for i in range(len(self.names))
        ]
        doc = dict(extra)
        doc.update(
            {
                "span_fields": ["name", "start_us", "end_us", "parent"],
                "names": table,
                "spans": spans,
                "absent": self.absent,
                "summary": self.summary(),
            }
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _wrap_module_function(tracer, module, attr, name, elems, originals):
    if attr.endswith("*"):
        hits = [a for a in vars(module) if a.startswith(attr[:-1]) and callable(getattr(module, a))]
        if not hits:
            tracer.absent.append(f"{module.__name__}.{attr}")
        for a in hits:
            _wrap_module_function(tracer, module, a, name, elems, originals)
        return
    fn = getattr(module, attr, None)
    if fn is None or not callable(fn):
        tracer.absent.append(f"{module.__name__}.{attr}")
        return
    if getattr(fn, "__wrapped_by_perfbench__", False):
        return
    wrapped = tracer.wrap(name, fn, elems)
    setattr(module, attr, wrapped)
    originals[id(fn)] = (fn, wrapped)


def _wrap_method(tracer, module, cls_name, attr, name, elems):
    base = getattr(module, cls_name, None)
    if not isinstance(base, type):
        tracer.absent.append(f"{module.__name__}.{cls_name}")
        return
    classes = [base]
    found = False
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        fn = cls.__dict__.get(attr)
        if fn is None or getattr(fn, "__wrapped_by_perfbench__", False):
            continue
        setattr(cls, attr, tracer.wrap(name, fn, elems))
        found = True
    if not found:
        tracer.absent.append(f"{module.__name__}.{cls_name}.{attr}")


def _apply(tracer, targets, originals):
    for name, modname, cls_name, attr, elems in targets:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            tracer.absent.append(modname)
            continue
        if cls_name is None:
            _wrap_module_function(tracer, module, attr, name, elems, originals)
        else:
            _wrap_method(tracer, module, cls_name, attr, name, elems)


def install(tracer: Tracer):
    """Wrap the scipy solvers, import mkdiv, then wrap mkdiv's layers."""
    if "mkdiv" in sys.modules:
        raise RuntimeError("install the tracer before importing mkdiv")
    originals: dict[int, tuple] = {}
    _apply(tracer, SCIPY_TARGETS, originals)
    importlib.import_module("mkdiv")
    importlib.import_module("mkdiv.cli")
    _apply(tracer, MKDIV_TARGETS, originals)
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "mkdiv" or modname.startswith("mkdiv.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def per_layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics (name -> (value, unit)) from recorded spans."""
    s = tracer.summary()

    def get(name, key="calls"):
        return s.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    calib_evals = tracer.calib_evals()
    calibrations = get("robust.calibrate")
    evaluate_calls = get("functionals.evaluate")
    residual_evals = get("functionals.residual")
    out = {
        "cli.main_ms": (get("cli.main", "ms"), "ms"),
        "cli.render_ms": (get("cli.render", "ms"), "ms"),
        "cli.render_bytes": (get("cli.render", "elems"), "bytes"),
        "specs.parse_ms": (get("specs.parse", "ms"), "ms"),
        "transport.oracle_calls": (get("transport.oracle"), "count"),
        "transport.oracle_ms": (get("transport.oracle", "ms"), "ms"),
        "transport.assignment_solves": (get("transport.lsa"), "count"),
        "transport.assignment_solves_per_oracle": (
            ratio(get("transport.lsa"), tracer.oracles_with_assignment()),
            "solves/oracle",
        ),
        "transport.lp_solves": (get("transport.lp"), "count"),
        "transport.lp_ms": (get("transport.lp", "ms"), "ms"),
        "transport.divergence_ms": (get("transport.divergence", "ms"), "ms"),
        "transport.certify_ms": (get("transport.certify", "ms"), "ms"),
        "transport.grid_lp_max_rel_dev": (
            tracer.records.get("transport.grid_lp_max_rel_dev", 0.0),
            "ratio",
        ),
        "robust.solve_ms": (get("robust.solve", "ms"), "ms"),
        "robust.calibrate_ms": (get("robust.calibrate", "ms"), "ms"),
        "robust.calib_evals": (calib_evals, "count"),
        "robust.calib_evals_per_solve": (ratio(calib_evals, calibrations), "evals/solve"),
        "robust.eval_ms": (ratio(get("robust.calibrate", "ms"), calib_evals), "ms"),
        "robust.choquet_ms": (get("robust.choquet", "ms"), "ms"),
        "payoff.solve_ms": (get("payoff.solve", "ms"), "ms"),
        "payoff.cost_ms": (get("payoff.cost", "ms"), "ms"),
        "distributions.quantile_ms": (get("distributions.quantile", "ms"), "ms"),
        "distributions.quantile_elems": (get("distributions.quantile", "elems"), "count"),
        "generators.bregman_ms": (get("generators.bregman", "ms"), "ms"),
        "generators.bregman_elems": (get("generators.bregman", "elems"), "count"),
        "generators.inv_dphi_ms": (get("generators.inv_dphi", "ms"), "ms"),
        "scores.eval_ms": (get("scores.eval", "ms"), "ms"),
        "scores.eval_elems": (get("scores.eval", "elems"), "count"),
        "numerics.reduce_calls": (get("numerics.reduce"), "count"),
        "numerics.reduce_elems": (get("numerics.reduce", "elems"), "count"),
        "numerics.reduce_ms": (get("numerics.reduce", "ms"), "ms"),
        "numerics.reduce_ns_per_elem": (
            ratio(1e6 * get("numerics.reduce", "ms"), get("numerics.reduce", "elems")),
            "ns/elem",
        ),
        "functionals.argmin_ms": (get("functionals.argmin", "ms"), "ms"),
        "functionals.axioms_ms": (get("functionals.axioms", "ms"), "ms"),
        "functionals.evaluate_calls": (evaluate_calls, "count"),
        "functionals.residual_evals": (residual_evals, "count"),
        "functionals.residual_evals_per_evaluate": (
            ratio(residual_evals, evaluate_calls),
            "evals/evaluate",
        ),
    }
    return out
