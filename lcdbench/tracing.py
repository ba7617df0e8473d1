"""Spans around the public functions of each lcdunkl layer, recorded from outside.

`Tracer.install()` wraps every public function (the module's `__all__`, or
its non-underscore functions when it has none) of the nine layer modules
and rebinds each wrapped function under every name any lcdunkl module
holds it by, so calls between layers pass through the wrappers too. A
span records its function name, layer, start, end, the index of the span
that was open when it started, and counts read from its arguments and
result. A call made while the same function's span is innermost is not
recorded again (the Bessel evaluator recurses into itself), so counts
are not doubled. `uninstall()` restores the original bindings.

`layer_metrics()` turns a list of spans into the per-layer metrics.
Self time is a span's duration minus the durations of its child spans;
children run inside their parent on one thread and never overlap.
"""

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("specfun", "quadrature", "transform", "corpus", "operators",
          "paleywiener", "sobolev", "symfun", "cli")

# each of these performs exactly one kernel contraction (one table lookup)
CONTRACTING = frozenset({"lcdt_forward", "dunkl_transform", "dunkl_values_at", "chirp_factorized_forward"})
ESTIMATORS = frozenset({"estimate_sigma", "poly_domain_test", "compact_spectrum_test",
                        "estimate_delta", "vanishing_interval_detect"})
RULE_FUNCTIONS = frozenset({"build_rule", "build_rule_from_edges"})

NAME, LAYER, T0, T1, PARENT, COUNTS = range(6)


def _rows(f, other_rule):
    rule = getattr(f, "rule", None)
    return len((rule if rule is not None else other_rule).nodes)


def _count_bessel(a, result):
    return {"points": int(np.size(a["u"])), "bytes": int(getattr(result, "nbytes", 0))}


def _count_forward(a, result):
    return {"entries": len(a["lam_rule"].nodes) * _rows(a["f"], a.get("x_rule"))}


def _count_chirp(a, result):
    return {"entries": len(a["lam_rule"].nodes) * len(a["x_rule"].nodes)}


def _count_values_at(a, result):
    return {"entries": int(np.size(a["freqs"])) * len(a["f"].rule.nodes)}


def _count_evaluate(a, result):
    return {"points": int(np.size(a["x"]))}


COUNTERS = {
    "bessel_j_grid": _count_bessel,
    "lcdt_forward": _count_forward,
    "dunkl_transform": _count_forward,
    "chirp_factorized_forward": _count_chirp,
    "dunkl_values_at": _count_values_at,
    "evaluate": _count_evaluate,
}


def public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for n in names:
        fn = getattr(mod, n, None)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield n, fn


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._wrappers = {}
        self._patched = []

    def _wrap(self, layer, name, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[T0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[COUNTS] = counter(bound.arguments, result)
            return result

        return wrapper

    def install(self):
        if not self._wrappers:
            for layer in LAYERS:
                mod = importlib.import_module(f"lcdunkl.{layer}")
                for name, fn in public_functions(mod):
                    self._wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lcdunkl" or modname.startswith("lcdunkl.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def _self_times(spans):
    dur = [s[T1] - s[T0] for s in spans]
    own = list(dur)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= dur[i]
    return dur, own


def _count(s, key):
    return s[COUNTS][key] if s[COUNTS] else 0


def layer_metrics(spans, n_ops):
    """Per-layer metrics of a traced timed phase, each per operation."""
    dur, own = _self_times(spans)
    n = max(n_ops, 1)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        layer_self[s[LAYER]] += t

    bessel = [i for i, s in enumerate(spans) if s[NAME] == "bessel_j_grid"]
    points = sum(_count(spans[i], "points") for i in bessel)
    bessel_s = sum(dur[i] for i in bessel)

    contracting = [i for i, s in enumerate(spans) if s[NAME] in CONTRACTING]
    built = {}
    for i in bessel:
        parent = spans[i][PARENT]
        if parent >= 0 and spans[parent][NAME] in CONTRACTING:
            built[parent] = built.get(parent, 0) + _count(spans[i], "bytes")
    contraction_s = sum(own[i] for i in contracting)
    entries = sum(_count(spans[i], "entries") for i in contracting)

    estimators = [i for i, s in enumerate(spans) if s[NAME] in ESTIMATORS]
    under_estimator = 0
    for i in contracting:
        j = spans[i][PARENT]
        while j >= 0 and spans[j][NAME] not in ESTIMATORS:
            j = spans[j][PARENT]
        under_estimator += j >= 0

    evaluate = [s for s in spans if s[NAME] == "evaluate"]
    builds = [i for i, s in enumerate(spans) if s[NAME] in RULE_FUNCTIONS
              and not (s[PARENT] >= 0 and spans[s[PARENT]][NAME] in RULE_FUNCTIONS)]

    return {
        "specfun.bessel_points": points / n,
        "specfun.bessel_s": bessel_s / n,
        "specfun.bessel_ns_per_point": 1e9 * bessel_s / points if points else 0.0,
        "specfun.kernel_dx_s": sum(dur[i] for i, s in enumerate(spans) if s[NAME] == "dunkl_kernel_dx") / n,
        "transform.calls": len(contracting) / n,
        "transform.table_builds": len(built) / n,
        "transform.table_hit_ratio": 1.0 - len(built) / len(contracting) if contracting else 0.0,
        "transform.table_mb": sum(built.values()) / 1e6 / n,
        "transform.contraction_s": contraction_s / n,
        "transform.contraction_entries": entries / n,
        "transform.ns_per_entry": 1e9 * contraction_s / entries if entries else 0.0,
        "paleywiener.self_s": layer_self["paleywiener"] / n,
        "paleywiener.transforms_per_estimate": under_estimator / len(estimators) if estimators else 0.0,
        "operators.self_s": layer_self["operators"] / n,
        "sobolev.self_s": layer_self["sobolev"] / n,
        "symfun.self_s": layer_self["symfun"] / n,
        "symfun.eval_points": sum(_count(s, "points") for s in evaluate) / n,
        "quadrature.build_s": sum(dur[i] for i in builds) / n,
        "corpus.realize_s": sum(dur[i] for i, s in enumerate(spans) if s[NAME] == "realize_bump") / n,
        "cli.serialize_s": layer_self["cli"] / n,
    }


def setup_metrics(spans):
    """The set-up share of the same layers, as totals for one set-up."""
    m = layer_metrics(spans, 1)
    return {
        "setup.quadrature.build_s": m["quadrature.build_s"],
        "setup.corpus.realize_s": m["corpus.realize_s"],
        "setup.specfun.bessel_s": m["specfun.bessel_s"],
        "setup.transform.table_builds": m["transform.table_builds"],
        "setup.transform.table_mb": m["transform.table_mb"],
    }
