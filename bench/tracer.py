"""Span tracer that wraps grauertlab's layer functions from outside the package.

``Tracer.install()`` replaces every public function of each layer module,
plus the cross-layer methods in ``METHODS``, with a wrapper that records a
span.  The wrapper is rebound wherever the original object is reachable:

* in every ``grauertlab.*`` module namespace, which covers names brought in
  by ``from .x import y`` and aliases such as ``curvature.hsc``;
* inside module-level dicts such as ``verify.SUITES``;
* on the class, for methods such as ``HoloMap.__call__``.

A span's self time is its duration minus the durations of its child spans.
Per layer the tracer counts calls, self time, exceptions that leave the
layer and numpy ``RuntimeWarning``s raised while the layer's span is
innermost.  ``uninstall()`` restores every binding it replaced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import warnings
from collections import Counter, defaultdict

LAYERS = (
    "density",
    "holomorphic",
    "metric",
    "curvature",
    "foliation",
    "divisors",
    "verify",
    "cli",
)

#: methods called across layer boundaries; value-object accessors such as
#: ``Jet.gradient`` stay unwrapped and count toward their caller
METHODS = {
    "holomorphic": [("HoloMap", "__call__")],
    "foliation": [("VectorField", "__call__")],
    "divisors": [("CompactGrid", "points"), ("DivisorFamily", "member")],
}

HOT = (
    "density.u_jet",
    "density.gamma_jet",
    "holomorphic.eval_jet",
    "metric.metric_matrix",
    "metric.metric_matrix_jet",
    "curvature.kahler_tensor",
    "curvature.holo_sectional_curvature",
    "foliation.integrate_leaf",
    "foliation.leaf_density_jet",
    "cli.emit_grid",
)

#: (scope, callee): calls of callee made while a scope span is open
SCOPED = (
    ("curvature.sup_sectional_curvature", "metric.metric_matrix_jet"),
    ("curvature.holo_sectional_curvature", "holomorphic.eval_jet"),
    ("divisors.sup_metric_gap", "metric.metric_matrix"),
)

#: every N-th u_jet call is kept for the density oracle
U_JET_SAMPLE_EVERY = 97


class Tracer:
    def __init__(self):
        self.reset()
        self._saved = []  # (kind, holder, key, original)
        self._installed = False

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.fp_warnings = Counter()
        self.scoped = Counter()
        self.grid_points_in_gap = 0
        self.chart_rows = 0
        self.cond_max = 0.0
        self.u_jet_samples = []
        self._stack = []
        self._open = Counter()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer, qual):
        tracer = self
        scopes = [s for s, c in SCOPED if c == qual]
        is_scope = any(s == qual for s, _ in SCOPED)
        hook = _HOOKS.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            for s in scopes:
                if tracer._open[s]:
                    tracer.scoped[s, qual] += 1
            if is_scope:
                tracer._open[qual] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[0] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if is_scope:
                    tracer._open[qual] -= 1
                tracer.calls[qual] += 1
                tracer.self_s[qual] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _targets(self):
        """(layer, qualified name, holder, attribute, original) to wrap."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"grauertlab.{layer}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and obj.__name__ == name  # aliases resolve to the canonical name
                ):
                    out.append((layer, f"{layer}.{name}", None, None, obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                out.append((layer, f"{layer}.{cls_name}.{meth}", cls, meth,
                            cls.__dict__[meth]))
        return out

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        by_id = {}
        for layer, qual, cls, meth, obj in self._targets():
            w = self._wrap(obj, layer, qual)
            if cls is not None:
                self._saved.append(("attr", cls, meth, obj))
                setattr(cls, meth, w)
            else:
                by_id[id(obj)] = (obj, w)
        for name, mod in list(sys.modules.items()):
            if not (name == "grauertlab" or name.startswith("grauertlab.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append(("attr", mod, attr, val))
                    setattr(mod, attr, hit[1])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        hit = by_id.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._saved.append(("item", val, key, item))
                            val[key] = hit[1]
        self._installed = True

    def uninstall(self):
        for kind, holder, key, orig in reversed(self._saved):
            if kind == "attr":
                setattr(holder, key, orig)
            else:
                holder[key] = orig
        self._saved.clear()
        self._installed = False

    # -- floating-point warnings ---------------------------------------------

    def showwarning(self, message, category, filename, lineno, file=None, line=None):
        """``warnings.showwarning`` replacement: count, never print."""
        layer = self._stack[-1][0] if self._stack else "outside"
        self.fp_warnings[layer] += 1

    @contextlib.contextmanager
    def capture_warnings(self):
        """Count every numpy RuntimeWarning instead of printing it."""
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = self.showwarning
            yield self

    # -- summary ----------------------------------------------------------

    def layer_totals(self):
        calls = Counter()
        self_s = defaultdict(float)
        for qual, n in self.calls.items():
            layer = qual.split(".", 1)[0]
            calls[layer] += n
            self_s[layer] += self.self_s[qual]
        return calls, self_s


def _ratio(num, den):
    return num / den if den else 0.0


def counts(tr: Tracer) -> dict:
    """Exact per-pass counts and ratios (no timings)."""
    calls, _ = tr.layer_totals()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.errors"] = tr.errors[layer]
        out[f"{layer}.fp_warnings"] = tr.fp_warnings[layer]
    for qual in HOT:
        out[f"{qual}.calls"] = tr.calls[qual]
    out["curvature.jets_per_kplus"] = _ratio(
        tr.scoped["curvature.sup_sectional_curvature", "metric.metric_matrix_jet"],
        tr.calls["curvature.sup_sectional_curvature"],
    )
    out["holomorphic.jets_per_hsc"] = _ratio(
        tr.scoped["curvature.holo_sectional_curvature", "holomorphic.eval_jet"],
        tr.calls["curvature.holo_sectional_curvature"],
    )
    out["divisors.metric_evals_per_point"] = _ratio(
        tr.scoped["divisors.sup_metric_gap", "metric.metric_matrix"],
        tr.grid_points_in_gap,
    )
    out["foliation.chart_coeffs_per_leaf"] = _ratio(
        tr.chart_rows, tr.calls["foliation.integrate_leaf"]
    )
    out["metric.cond_max"] = tr.cond_max
    return out


def timings(tr: Tracer) -> dict:
    _, self_s = tr.layer_totals()
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({f"{qual}.self_s": tr.self_s[qual] for qual in HOT})
    return out


# -- result hooks: counters read from return values ---------------------------

def _cond_from_G(tr, G):
    # G = gamma a a^* + I, so trace(G) - (n - 1) = 1 + gamma |a|^2 is the
    # Sherman-Morrison condition number
    cond = float(G.trace().real) - (G.shape[0] - 1)
    if cond > tr.cond_max:
        tr.cond_max = cond


def _hook_metric_matrix(tr, args, result):
    _cond_from_G(tr, result)


def _hook_metric_matrix_jet(tr, args, result):
    _cond_from_G(tr, result.G)


def _hook_grid_points(tr, args, result):
    if tr._open["divisors.sup_metric_gap"]:
        tr.grid_points_in_gap += len(result)


def _hook_integrate_leaf(tr, args, result):
    tr.chart_rows += result.coeffs.shape[0]


def _hook_u_jet(tr, args, result):
    if tr.calls["density.u_jet"] % U_JET_SAMPLE_EVERY == 1:
        tr.u_jet_samples.append(result)


_HOOKS = {
    "metric.metric_matrix": _hook_metric_matrix,
    "metric.metric_matrix_jet": _hook_metric_matrix_jet,
    "divisors.CompactGrid.points": _hook_grid_points,
    "foliation.integrate_leaf": _hook_integrate_leaf,
    "density.u_jet": _hook_u_jet,
}
