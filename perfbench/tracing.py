"""Outside-in tracing of platform_eq's public functions, for the traced run only.

``Tracer.install()`` replaces each function named in SPANS and COUNTERS by a
wrapper in every ``platform_eq`` module, and every module-level dict, that
holds a reference to it, so a call is seen whichever import site it goes
through; ``uninstall()`` puts the originals back.  Span wrappers keep (id, parent id, name, item, start, end) in
memory and add up calls, self time and raised exceptions per layer; self
time is a span's duration minus the time its child spans cover.  Counter
wrappers only count.  Every call is also counted under the innermost open
span, which gives the per-solve and per-derivative ratios.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from collections import Counter
from time import perf_counter

# (layer, module, attribute); a dict attribute means "each of its values"
SPANS = (
    ("equilibrium.solve", "platform_eq.equilibrium", "solve_cne"),
    ("equilibrium.solve", "platform_eq.equilibrium", "solve_ce"),
    ("equilibrium.solve_decoupled_batch", "platform_eq.equilibrium", "solve_decoupled_batch"),
    ("statics.fd_derivative", "platform_eq.statics", "fd_derivative"),
    ("statics.analytic", "platform_eq.statics", "_ANALYTIC_OPS"),
    ("regions.region_grid", "platform_eq.regions", "region_grid"),
    ("regions.classify", "platform_eq.regions", "classify_existence"),
    ("regions.classify", "platform_eq.regions", "classify_sign_z"),
    ("regions.classify", "platform_eq.regions", "classify_direction"),
    ("regions.grid_agreement", "platform_eq.regions", "grid_agreement"),
    ("regions.figure_paint", "platform_eq.regions", "figure_paint"),
    ("model.MarketParams", "platform_eq.model", "MarketParams.__init__"),
    ("demand.fixed_point_batch", "platform_eq.demand", "fixed_point_batch"),
    ("demand.share_fixed_point", "platform_eq.demand", "share_fixed_point"),
    ("verify.verify_nash", "platform_eq.verify", "verify_nash"),
    ("verify.soc_report", "platform_eq.verify", "soc_report"),
    ("cli.csv_text", "platform_eq.cli", "csv_text"),
    ("svg.region_svg", "platform_eq.svg", "region_svg"),
    ("config.load_config", "platform_eq.config", "load_config"),
)
COUNTERS = (
    ("equilibrium.mk_value", "platform_eq.equilibrium", "mk_value"),
    ("equilibrium.mkc_value", "platform_eq.equilibrium", "mkc_value"),
    ("equilibrium.foc_residual", "platform_eq.equilibrium", "cne_foc_residual"),
    ("equilibrium.foc_residual", "platform_eq.equilibrium", "ce_foc_residual"),
    ("regions.eval_threshold", "platform_eq.regions", "eval_threshold"),
    ("model.solve_cubic_real", "platform_eq.model", "solve_cubic_real"),
    ("demand.sigma", "platform_eq.demand", "_sigma"),
    ("verify.deviation_profit", "platform_eq.verify", "deviation_profit"),
)
# import sites that must see the wrapper, checked after install
SITES = (
    ("platform_eq.cli", ("solve_cne", "solve_ce", "classify_sign_z", "classify_direction",
                         "fd_derivative", "csv_text", "region_grid", "grid_agreement",
                         "figure_paint", "region_svg", "load_config", "verify_nash",
                         "soc_report")),
    ("platform_eq.statics", ("solve_cne",)),
    ("platform_eq.regions", ("mk_value", "mkc_value", "solve_decoupled_batch",
                             "solve_cubic_real")),
    ("platform_eq.verify", ("deviation_profit", "share_fixed_point", "fixed_point_batch")),
)
FOC_LAYERS = ("equilibrium.mk_value", "equilibrium.mkc_value", "equilibrium.foc_residual")
# layers a metric is computed from, where its name does not say
DERIVED_FROM = {
    "equilibrium.foc_evals_per_solve": FOC_LAYERS + ("equilibrium.solve",),
    "equilibrium.solver_error_ratio": ("equilibrium.solve",),
    "statics.solves_per_derivative": ("equilibrium.solve", "statics.fd_derivative"),
    "demand.batch_cells": ("demand.fixed_point_batch",),
    "demand.batch_unconverged_ratio": ("demand.fixed_point_batch",),
    "demand.sigma_evals": ("demand.sigma",),
    "demand.fixed_point_error_ratio": ("demand.share_fixed_point",),
    "verify.polish_refined_ratio": ("verify.verify_nash",),
}


def _cells(array) -> int:
    return math.prod(getattr(array, "shape", (1, 1))[:-2])


def _sigma_weight(args, kwargs):
    return _cells(args[0] if args else kwargs["x"])


def _batch_post(tracer, bound, result):
    tol = bound.arguments["tol"]
    _shares, resid = result
    tracer.counts["demand.batch_cells"] += _cells(bound.arguments["prices_batch"])
    tracer.counts["demand.batch_unconverged"] += int((resid > tol).sum())


def _verify_post(tracer, bound, result):
    tracer.counts["verify.refined"] += bool(result.refined)


WEIGHTS = {"demand.sigma": _sigma_weight}
POSTS = {"demand.fixed_point_batch": _batch_post, "verify.verify_nash": _verify_post}


class Tracer:
    def __init__(self):
        self.counts = Counter()     # per layer: calls, self time, errors, extras
        self.nested = Counter()     # (layer, innermost open span) -> calls
        self.spans: list[tuple] = []
        self.recording = False
        self.item = -1
        self.missing: list[str] = []
        self.warnings: list[str] = []
        self._stack: list[list] = []   # [span id, layer, child time]
        self._next_id = 0
        self._bindings: list[tuple] | None = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer, fn):
        stack, counts, nested = self._stack, self.counts, self.nested
        post = POSTS.get(layer)
        sig = inspect.signature(fn) if post else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            nested[layer, stack[-1][1] if stack else ""] += 1
            frame = [sid, layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[layer + ".errors"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                counts[layer + ".calls"] += 1
                counts[layer + ".self_s"] += dur - frame[2]
                parent = -1
                if stack:
                    stack[-1][2] += dur
                    parent = stack[-1][0]
                if self.recording:
                    self.spans.append((sid, parent, layer, self.item, t0, t1))
            if post:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                post(self, bound, result)
            return result
        return wrapper

    def _counter(self, layer, fn):
        stack, counts, nested = self._stack, self.counts, self.nested
        weight = WEIGHTS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer + ".calls"] += weight(args, kwargs) if weight else 1
            nested[layer, stack[-1][1] if stack else ""] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def _plan(self) -> list[tuple]:
        """(container, key, original, wrapper) for every reference to rebind."""
        plan, replace = [], {}   # replace: id(original) -> (original, wrapper)
        for specs, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for layer, module_name, attr in specs:
                target = importlib.import_module(module_name)
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(target, owner_name) if owner_name else target
                original = getattr(owner, name, None)
                if original is None:
                    self.missing.append(layer)
                    self.warnings.append(f"{module_name}.{attr} not found; "
                                         f"{layer} metrics reported as null")
                elif owner_name:  # a method: the class object is shared by every module
                    plan.append((owner, name, original, make(layer, original)))
                else:
                    for fn in (original.values() if isinstance(original, dict) else (original,)):
                        replace[id(fn)] = (fn, make(layer, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "platform_eq" and not mod_name.startswith("platform_eq."):
                continue
            for key, value in vars(module).items():
                hit = replace.get(id(value))
                if hit and hit[0] is value:
                    plan.append((module, key, value, hit[1]))
                elif isinstance(value, dict) and not key.startswith("__"):
                    plan += [(value, k, v, replace[id(v)][1]) for k, v in value.items()
                             if replace.get(id(v), (None,))[0] is v]
        return plan

    def _apply(self, use_wrapper: bool) -> None:
        for container, key, original, wrapper in self._bindings:
            value = wrapper if use_wrapper else original
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._plan()
            wrapped = {(id(c), k) for c, k, _, _ in self._bindings}
            for mod_name, names in SITES:
                module = sys.modules.get(mod_name)
                for name in names:
                    if hasattr(module, name) and (id(module), name) not in wrapped:
                        self.warnings.append(f"{mod_name}.{name} is not traced")
        self._apply(True)

    def uninstall(self) -> None:
        self._apply(False)

    # -- per-pass results -------------------------------------------------

    def take(self) -> dict:
        """Per-layer metrics of the calls since the last take(), then reset."""
        c, nested = self.counts, self.nested

        def ratio(num, den):
            return num / den if den else 0.0

        solves = c["equilibrium.solve.calls"]
        fds = c["statics.fd_derivative.calls"]
        m = {
            "equilibrium.solve.calls": solves,
            "equilibrium.solve.self_s": c["equilibrium.solve.self_s"],
            "equilibrium.mk_value.calls": c["equilibrium.mk_value.calls"],
            "equilibrium.mkc_value.calls": c["equilibrium.mkc_value.calls"],
            "equilibrium.foc_residual.calls": c["equilibrium.foc_residual.calls"],
            "equilibrium.foc_evals_per_solve": ratio(
                sum(nested[f, "equilibrium.solve"] for f in FOC_LAYERS), solves),
            "equilibrium.solver_error_ratio": ratio(c["equilibrium.solve.errors"], solves),
            "equilibrium.solve_decoupled_batch.calls": c["equilibrium.solve_decoupled_batch.calls"],
            "equilibrium.solve_decoupled_batch.self_s": c["equilibrium.solve_decoupled_batch.self_s"],
            "statics.fd_derivative.calls": fds,
            "statics.fd_derivative.self_s": c["statics.fd_derivative.self_s"],
            "statics.solves_per_derivative": ratio(
                nested["equilibrium.solve", "statics.fd_derivative"], fds),
            "statics.analytic.calls": c["statics.analytic.calls"],
            "statics.analytic.self_s": c["statics.analytic.self_s"],
            "regions.region_grid.self_s": c["regions.region_grid.self_s"],
            "regions.classify.calls": c["regions.classify.calls"],
            "regions.classify.self_s": c["regions.classify.self_s"],
            "regions.eval_threshold.calls": c["regions.eval_threshold.calls"],
            "regions.grid_agreement.self_s": c["regions.grid_agreement.self_s"],
            "regions.figure_paint.self_s": c["regions.figure_paint.self_s"],
            "model.solve_cubic_real.calls": c["model.solve_cubic_real.calls"],
            "model.MarketParams.built": c["model.MarketParams.calls"],
            "model.MarketParams.self_s": c["model.MarketParams.self_s"],
            "demand.fixed_point_batch.calls": c["demand.fixed_point_batch.calls"],
            "demand.fixed_point_batch.self_s": c["demand.fixed_point_batch.self_s"],
            "demand.batch_cells": c["demand.batch_cells"],
            "demand.batch_unconverged_ratio": ratio(c["demand.batch_unconverged"],
                                                    c["demand.batch_cells"]),
            "demand.share_fixed_point.calls": c["demand.share_fixed_point.calls"],
            "demand.share_fixed_point.self_s": c["demand.share_fixed_point.self_s"],
            "demand.sigma_evals": c["demand.sigma.calls"],
            "demand.fixed_point_error_ratio": ratio(c["demand.share_fixed_point.errors"],
                                                    c["demand.share_fixed_point.calls"]),
            "verify.verify_nash.self_s": c["verify.verify_nash.self_s"],
            "verify.deviation_profit.calls": c["verify.deviation_profit.calls"],
            "verify.polish_refined_ratio": ratio(c["verify.refined"],
                                                 c["verify.verify_nash.calls"]),
            "verify.soc_report.self_s": c["verify.soc_report.self_s"],
            "cli.csv_text.self_s": c["cli.csv_text.self_s"],
            "svg.region_svg.self_s": c["svg.region_svg.self_s"],
            "config.load_config.self_s": c["config.load_config.self_s"],
        }
        for key in m:
            if key.endswith("_s"):
                m[key] = float(m[key])
            deps = DERIVED_FROM.get(key, (key.rpartition(".")[0],))
            if any(layer in self.missing for layer in deps):
                m[key] = None
        c.clear()
        nested.clear()
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "layer", "item", "start_s", "end_s"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
