"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around the public entry points of each ultrazeta layer
by wrapping them from the benchmark's side: every module namespace that
binds an entry point (including re-bindings made with ``from .grid import
fourier_transform``) gets the same wrapper, so a call is attributed to the
layer that defines the function whatever module it is reached through.

A span has a name ``<layer>.<group>``, a start, an end, a parent span and
the id of the benchmark task that caused it.  Its self time is its
duration minus the time covered by its child spans.  Calls of the hot
leaf groups (field-element arithmetic, polynomial evaluation) are far too
many to keep one record each: they are aggregated per (parent span, name)
into a count and a total, and still charge their time to the parent.

With ``active`` false every wrapper is a plain pass-through; the oracle
checks run that way so that they do not count towards any layer.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

LAYERS = ("localfield", "intpoly", "grid", "ratfunc", "zeta", "pdo",
          "fundsol", "cli")

# groups recorded as aggregates instead of one span per call
LEAF_GROUPS = frozenset({"localfield.ops", "intpoly.eval"})


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []             # (id, parent, name, fn, start, end, task)
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.task = None
        self._stack = []            # frames: [span id, child time]
        self._next_id = 1
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def call(self, name, fn_name, fn, args, kwargs):
        parent = self._stack[-1]
        leaf = name in LEAF_GROUPS
        sid = parent[0] if leaf else self._next_id
        if not leaf:
            self._next_id += 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            parent[1] += dur
            own = dur - frame[1]
            self.self_s[name] += own
            if leaf:
                agg = self.leaves[(parent[0], name)]
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
            else:
                self.spans.append((sid, parent[0], name, fn_name, t0, t1,
                                   self.task))

    def run_task(self, task_id, fn):
        """Run one benchmark task under a root span ``bench.task``.

        Returns the task's duration; the root's self time is the
        benchmark's own code inside the task (``bench.self_s``)."""
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0.0]
        self._stack = [frame]
        self.task = task_id
        self.active = True
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            t1 = time.perf_counter()
            self.active = False
            self._stack = []
            dur = t1 - t0
            self.self_s["bench.task"] += dur - frame[1]
            self.spans.append((sid, 0, "bench.task", str(task_id), t0, t1,
                               task_id))
        return dur

    # -- patching ------------------------------------------------------------

    def install(self, package):
        """Wrap every entry point of ENTRY_POINTS in every ultrazeta module
        namespace that binds it, and the listed methods on their classes."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}")
            for m in LAYERS]
        for layer, fn_name, group, count in ENTRY_POINTS:
            mod = modules[1 + LAYERS.index(layer)]
            owner_name, _, attr = fn_name.rpartition(".")
            if owner_name:
                cls = getattr(mod, owner_name)
                raw = cls.__dict__[attr]
                kind = type(raw) if isinstance(raw, (staticmethod,
                                                     classmethod)) else None
                orig = raw.__func__ if kind else raw
                wrapped = self._wrap(orig, layer, fn_name, group, count)
                setattr(cls, attr, kind(wrapped) if kind else wrapped)
                self._patched.append((cls, attr, raw))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, layer, fn_name, group, count)
            for ns in modules:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapped)
                        self._patched.append((ns, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    def _wrap(self, fn, layer, fn_name, group, count):
        tracer = self
        fixed = None if callable(group) else f"{layer}.{group}"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = fixed or group(args, kwargs)
            try:
                out = tracer.call(name, fn_name, fn, args, kwargs)
            except Exception as err:
                if count:
                    count(tracer.counters, args, kwargs, None, err)
                raise
            if count:
                count(tracer.counters, args, kwargs, out, None)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", fn_name)
        return wrapper

    # -- results -------------------------------------------------------------

    def layer_metrics(self, workload):
        """The workload's per-layer metrics, named ``<workload>.<metric>``
        (all but trace.overhead_ratio, which needs the untraced twin).
        Self times of all layers plus bench.self_s add up to
        trace.wall_s, the traced tasks' wall time."""
        layer_self = {layer: sum(v for k, v in self.self_s.items()
                                 if k.split(".", 1)[0] == layer)
                      for layer in LAYERS}
        spec = WORKLOAD_METRICS[workload]
        out = {f"{layer}.self_s": layer_self[layer]
               for layer in spec["layers"]}
        out.update({f"{g}.self_s": self.self_s.get(g, 0.0)
                    for g in spec["groups"]})
        out.update({c: self.counters.get(c, 0) for c in spec["counters"]})
        out["bench.self_s"] = self.self_s.get("bench.task", 0.0)
        out["trace.layers_self_s"] = sum(layer_self.values())
        out["trace.wall_s"] = sum(s[5] - s[4] for s in self.spans
                                  if s[2] == "bench.task")
        out["trace.spans"] = len(self.spans) + sum(
            v[0] for v in self.leaves.values())
        return {f"{workload}.{k}": v for k, v in out.items()}

    def dump(self):
        return {
            "spans": [{"id": s[0], "parent": s[1], "name": s[2], "fn": s[3],
                       "start": s[4], "end": s[5], "task": s[6]}
                      for s in self.spans],
            "aggregated_leaves": [
                {"parent": parent, "name": name, "count": v[0],
                 "total_s": v[1], "self_s": v[2]}
                for (parent, name), v in self.leaves.items()],
        }


# -- what a call counts -------------------------------------------------------

def _fourier_group(args, kwargs):
    g = args[0] if args else kwargs["g"]
    return "grid.fourier.qp" if g.field.kind == "Qp" else "grid.fourier.fpt"


def _count_fourier(c, args, kwargs, out, err):
    if out is None:
        return
    cells = int(out.values.size)
    key = "qp" if out.field.kind == "Qp" else "fpt"
    c[f"grid.fourier.{key}.cells"] += cells
    # computed, not measured: one complex128 read and one write per cell
    c["grid.fourier.bytes_computed"] += 2 * 16 * cells


def _igusa_group(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "auto")
    if method == "brute":
        return "zeta.brute"
    f = args[0] if args else kwargs["f"]
    if method == "auto" and f.monomial_profile() is not None:
        return "zeta.monomial"
    return "zeta.lift"


def _count_igusa(c, args, kwargs, out, err):
    group = _igusa_group(args, kwargs)
    terms = kwargs.get("terms", args[2] if len(args) > 2 else None)
    if group == "zeta.lift":
        c["zeta.lift.calls"] += 1
        c["zeta.lift.terms"] += int(terms)
        if err is not None and type(err).__name__ == "BudgetExceeded":
            c["zeta.lift.budget_failed"] += 1
    elif group == "zeta.brute":
        f = args[0] if args else kwargs["f"]
        field = args[1] if len(args) > 1 else kwargs["field"]
        # computed from the inputs: q^{n(K+1)} residue points
        c["zeta.brute.points"] += field.q ** (f.n * (int(terms) + 1))


def _count_cells_to_rational(c, args, kwargs, out, err):
    gh = args[0] if args else kwargs["gh"]
    c["zeta.cells_to_rational.cells"] += int(np.count_nonzero(gh.values))


def _count_reconstruct(c, args, kwargs, out, err):
    c["ratfunc.reconstruct.attempts"] += 1
    if err is None:
        c["ratfunc.reconstruct.solved"] += 1


def _count_laurent(c, args, kwargs, out, err):
    c["ratfunc.laurent.calls"] += 1


def _count_json(c, args, kwargs, out, err):
    g = out if args and isinstance(args[0], dict) else args[0]
    if g is not None and hasattr(g, "values"):
        c["grid.json.cells"] += int(g.values.size)


def _norm_sq_group(args, kwargs):
    general = args[0].coordinate_exponents() is None
    return "pdo.symbol_norm" if general else "grid.norms"


def _count_norm_sq(c, args, kwargs, out, err):
    if err is not None and args[0].coordinate_exponents() is None:
        c["pdo.symbol_norm.failed"] += 1


def _count_division(c, args, kwargs, out, err):
    if out is not None:
        c["fundsol.division.cells"] += int(out.trials)


def _count_cli(c, args, kwargs, out, err):
    c["cli.commands"] += 1
    if err is not None or out != 0:
        c["cli.exit_nonzero"] += 1


def _count_op(c, args, kwargs, out, err):
    c["localfield.ops"] += 1


def _count_eval(c, args, kwargs, out, err):
    c["intpoly.evals"] += 1


# (layer, entry point, group or group function, counter function)
ENTRY_POINTS = [
    *[("localfield", name, "ops", _count_op) for name in (
        "valuation_and_norm", "field_arith", "char_fraction",
        "char_fraction_of_rational", "ball_measure", "sphere_measure",
        "LocalFieldElement.__add__", "LocalFieldElement.__sub__",
        "LocalFieldElement.__mul__", "LocalFieldElement.__truediv__",
        "LocalFieldElement.__neg__", "LocalFieldElement.norm",
        "LocalFieldElement.as_fraction", "LocalFieldElement.digit_at",
        "LocalFieldElement.from_digits", "LocalFieldElement.from_int",
        "LocalFieldElement.from_rational",
        "LocalFieldElement.from_laurent_coeffs",
        "LocalFieldElement.to_json", "LocalFieldElement.from_json")],
    *[("intpoly", name, "eval", _count_eval) for name in (
        "IntPolynomial.eval_int", "IntPolynomial.eval_fraction",
        "IntPolynomial.eval_fpt")],
    *[("intpoly", name, "build", None) for name in (
        "parse_polynomial", "IntPolynomial.gradient",
        "IntPolynomial.hasse_derivatives")],
    ("grid", "fourier_transform", _fourier_group, _count_fourier),
    ("grid", "inverse_fourier_transform", "other", None),
    ("grid", "reflect", "reflect", None),
    ("grid", "partial_fourier_restrict", "restrict", None),
    ("grid", "power_integral", "power_integral", None),
    *[("grid", name, "norms", None) for name in (
        "sobolev_norm", "sobolev_norm_with_tail", "l2_norm", "sup_norm",
        "hinf_metric", "dual_norm")],
    ("grid", "convolve", "convolve", None),
    ("grid", "pairing", "pairing", None),
    ("grid", "GridFunction.to_json", "json", _count_json),
    ("grid", "GridFunction.from_json", "json", _count_json),
    *[("grid", name, "other", None) for name in (
        "random_grid", "embed", "unify_pair", "spectral_space_value",
        "GridFunction.indicator_ball", "GridFunction.evaluate")],
    # SpectralFunction.norm_sq lives in grid but, for a general polynomial
    # symbol, is the certified refinement the pdo layer exists for
    ("grid", "SpectralFunction.norm_sq", _norm_sq_group, _count_norm_sq),
    ("ratfunc", "reconstruct_from_series", "reconstruct",
     _count_reconstruct),
    ("ratfunc", "laurent_at", "laurent", _count_laurent),
    *[("ratfunc", name, "other", None) for name in (
        "rf_arith", "RationalFunctionT.series",
        "RationalFunctionT.substitute_shift", "RationalFunctionT.eval_s",
        "RationalFunctionT.eval_t")],
    ("zeta", "igusa_series", _igusa_group, _count_igusa),
    ("zeta", "monomial_zeta_closed", "monomial", None),
    ("zeta", "cells_to_rational", "cells_to_rational",
     _count_cells_to_rational),
    ("zeta", "HinfZetaEngine.__init__", "hinf", None),
    ("zeta", "HinfZetaEngine.value", "hinf", None),
    *[("zeta", name, "poles", None) for name in (
        "predict_poles", "locate_real_poles", "snc_pole_progressions")],
    ("pdo", "apply_pseudodiff", "apply", None),
    ("pdo", "riesz_pairing", "riesz", None),
    ("pdo", "riesz_space_side", "riesz", None),
    ("fundsol", "division_check", "division", _count_division),
    ("fundsol", "delta_identity_check", "delta", None),
    ("fundsol", "convolution_check", "convolution", None),
    *[("fundsol", name, "chain", None) for name in (
        "zeta_exact_in_t", "laurent_functional", "extract_T0", "t0_value",
        "t0_applied_to_operator_image", "fundamental_solution_check")],
    ("cli", "main", "main", _count_cli),
]

# Per-layer metrics by workload: the layers a workload's tasks reach,
# the groups whose self time it reports, and its counters.  Only layers
# and groups that every run of the workload exercises are listed, so no
# reported time is a constant zero.
WORKLOAD_METRICS = {
    "grids": {
        "layers": ("grid",),
        "groups": ("grid.fourier.qp", "grid.fourier.fpt", "grid.norms",
                   "grid.reflect", "grid.restrict"),
        "counters": ("grid.fourier.qp.cells", "grid.fourier.fpt.cells",
                     "grid.fourier.bytes_computed")},
    "cli": {
        "layers": LAYERS,
        "groups": ("zeta.lift", "zeta.brute", "zeta.monomial", "zeta.hinf",
                   "zeta.poles", "zeta.cells_to_rational", "grid.json",
                   "grid.power_integral", "ratfunc.reconstruct",
                   "ratfunc.laurent", "pdo.symbol_norm", "pdo.riesz",
                   "fundsol.division", "fundsol.delta", "fundsol.convolution",
                   "cli.main"),
        "counters": ("localfield.ops", "intpoly.evals", "zeta.lift.calls",
                     "zeta.lift.terms", "zeta.lift.budget_failed",
                     "zeta.brute.points", "zeta.cells_to_rational.cells",
                     "grid.json.cells", "ratfunc.reconstruct.attempts",
                     "ratfunc.reconstruct.solved", "ratfunc.laurent.calls",
                     "pdo.symbol_norm.failed", "fundsol.division.cells",
                     "cli.commands", "cli.exit_nonzero")},
}
TRACE_METRICS = ("bench.self_s", "trace.layers_self_s", "trace.wall_s",
                 "trace.spans", "trace.overhead_ratio")


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("overhead_ratio"):
        return "ratio"
    return "count"


def metric_names(workload):
    spec = WORKLOAD_METRICS[workload]
    names = [f"{layer}.self_s" for layer in spec["layers"]] \
        + [f"{g}.self_s" for g in spec["groups"]] + list(spec["counters"]) \
        + list(TRACE_METRICS)
    return [f"{workload}.{name}" for name in names]


METRIC_UNITS = {name: _unit(name) for w in WORKLOAD_METRICS
                for name in metric_names(w)}
