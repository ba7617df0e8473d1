"""Command-line entry point: transform, estimate, verify.

One flat JSON config per run; every default is filled in and echoed
into the output metadata so any reported number can be reproduced.
Every field is checked (type from DEFAULT_CONFIG, range from LIMITS or
CHOICES) before any compute. Data files carry no timestamps and are
written atomically.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import paleywiener
from . import verify as verify_mod
from .corpus import bump_profile, bump_spectrum, gauss_profile, realize_bump
from .errors import ParameterError, RangeError, ResourceBudgetError, ShapeMismatchError
from .operators import MAX_N_SPECTRAL, RealPolynomial
from .paleywiener import MIN_N_FIT
from .specfun import U_MAX, CanonicalMatrix
from .quadrature import SampledFunction
from .symfun import evaluate, expr_from_json
from .transform import TABLE_BUDGET, lcdt_forward

DEFAULT_CONFIG = {
    "k": 0.5,
    "matrix": {"a": 1.0, "b": 1.0, "c": 0.0, "d": 1.0},
    "grid": {
        "x_radius": 10.0,
        "x_panels": 40,
        "x_nodes": 16,
        "lambda_radius": 14.0,
        "lambda_panels": 48,
        "lambda_nodes": 14,
    },
    "function": {"type": "bump", "intervals": [[1.0, 2.0]], "symmetrize": False},
    "estimator": {"p": 2.0, "n_max": 30, "method": "ratio", "poly": [0.0, 0.0, 0.25]},
}

# closed ranges of the numeric fields; a number field without one need only be finite
LIMITS = {
    "k": (-0.5, 150.0),  # past k ~ 150.017 the measure's 2^(k+1) Gamma(k+1) overflows a double
    "grid.x_radius": (1e-3, U_MAX),
    "grid.lambda_radius": (1e-3, U_MAX),
    "grid.x_panels": (2, 4096),
    "grid.lambda_panels": (2, 4096),
    "grid.x_nodes": (2, 64),  # leggauss solves an n x n eigenproblem
    "grid.lambda_nodes": (2, 64),
    "estimator.p": (1.0, math.inf),  # p = inf is written "inf"
    "estimator.n_max": (MIN_N_FIT, MAX_N_SPECTRAL),
}
# a bump's transform is compared with its constructed spectrum: a largest miss above this share of the
# spectrum's peak is recorded in spectrum.json's warnings. The default interval [1, 2] at M = (1, 1; 0, 1)
# misses by 6.2e-5 at k = 2.1 (the benchmark's largest k), 1.0e-3 at k = 4, 7.9e-3 at k = 5 and 3.4 at k = 10
ROUND_TRIP_TOL = 1e-3
CHOICES = {"function.type": ("bump", "symexpr"), "estimator.method": paleywiener.METHODS}
NO_DEFAULT = ("function.expr",)  # known fields that only their constructor checks

# `estimate --which` choice -> estimator name in paleywiener
ESTIMATORS = {"sigma": "estimate_sigma", "delta": "estimate_delta", "poly": "poly_domain_test",
              "compact": "compact_spectrum_test", "vanishing": "vanishing_interval_detect"}


class ConfigError(Exception):
    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


def _checked(path, default, value):
    """value of the field at path, checked against its default, LIMITS and CHOICES, in the default's type."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(path or "config", f"must be a JSON object, got {value!r}")
        out = {}
        for key, val in {**default, **value}.items():
            sub = f"{path}.{key}" if path else key
            if key not in default and sub not in NO_DEFAULT:
                raise ConfigError(sub, "unknown field")
            out[key] = _checked(sub, default[key], val) if key in default else val
        return out
    if isinstance(default, (bool, str, list)):
        if value not in CHOICES[path] if isinstance(default, str) else type(value) is not type(default):
            want = f"one of {list(CHOICES[path])}" if isinstance(default, str) else f"a JSON {type(default).__name__}"
            raise ConfigError(path, f"must be {want}, got {value!r}")
        return value
    lo, hi = LIMITS.get(path, (-sys.float_info.max, sys.float_info.max))
    if value == "inf" and hi == math.inf:
        return math.inf
    whole = isinstance(default, int)
    number = float(value) if type(value) in (int, float) and abs(value) <= sys.float_info.max else math.nan
    if not (lo <= number <= hi and (number.is_integer() or not whole)):
        span = f" in [{lo:g}, {hi:g}]" + (' or "inf"' if hi == math.inf else "") if path in LIMITS else ""
        raise ConfigError(path, f"must be {'an integer' if whole else 'a finite number'}{span}, got {value!r}")
    return int(number) if whole else number


def _load_config(path):
    """(the config as given, defaults filled in; the checked config)."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError("config", f"cannot read config: {exc}")
    cfg = _checked("", DEFAULT_CONFIG, raw)
    given = {key: {**val, **raw.get(key, {})} if isinstance(val, dict) else raw.get(key, val)
             for key, val in DEFAULT_CONFIG.items()}
    return given, cfg


def _built(field, make, *args, **kwargs):
    """make(*args, **kwargs); a refusal is reported under field, or under the subfield it names."""
    try:
        return make(*args, **kwargs)
    except (ArithmeticError, AttributeError, LookupError, RecursionError, ResourceBudgetError,
            TypeError, ValueError) as exc:
        named = str(exc).split(":")[0]
        raise ConfigError(named if named.startswith(field + ".") else field,
                          str(exc) if isinstance(exc, ValueError) else repr(exc)) from None


def _intervals(pairs, symmetrize):
    """[[lo, hi], ...] as pairs of finite numbers with lo < hi, with their mirror images if symmetrize."""
    out = tuple((_checked("function.intervals", 0.0, lo), _checked("function.intervals", 0.0, hi)) for lo, hi in pairs)
    if not out or not all(lo < hi for lo, hi in out):
        raise ParameterError("need nonempty [lo, hi] pairs with lo < hi")
    return tuple((-hi, -lo) for lo, hi in out) + out if symmetrize else out


def _check_rules(prof, M, field):
    """Refuse rule pairs whose kernel argument passes U_MAX or whose folded tables pass TABLE_BUDGET."""
    x, lam = np.abs(prof.x_rule.nodes), np.abs(prof.lam_rule.nodes)
    u = float(x.max() * lam.max()) / abs(M.b)
    if u > U_MAX:
        raise ConfigError(field, f"kernel argument max|x| max|lambda| / |b| = {u:.6g} beyond {U_MAX:g}")
    size = 16 * prof.x_rule.fold[0].size * prof.lam_rule.fold[0].size
    if size > TABLE_BUDGET:
        raise ConfigError(field, f"folded kernel tables need {size} bytes, beyond {TABLE_BUDGET}")


def _build_context(cfg):
    """k, matrix, polynomial, grid profile and (kind, intervals or expression) of a checked config."""
    k, fn, g = cfg["k"], cfg["function"], cfg["grid"]
    M = _built("matrix", CanonicalMatrix, **cfg["matrix"])
    P = _built("estimator.poly", lambda c: RealPolynomial(tuple(c)).require_nonconstant(), cfg["estimator"]["poly"])
    expr = _built("function.expr", expr_from_json, fn.get("expr")) if fn["type"] == "symexpr" or "expr" in fn else None
    if fn["type"] == "bump":
        field = "function.intervals"
        data = _built(field, _intervals, fn["intervals"], fn["symmetrize"])
        prof = _built(field, bump_profile, k, data, b=M.b)
    else:
        field, data = "grid", expr
        prof = _built(field, gauss_profile, k, g["x_radius"], g["x_panels"], g["x_nodes"],
                      g["lambda_radius"], g["lambda_panels"], g["lambda_nodes"])
        with np.errstate(all="ignore"):  # finite terms can overflow on the x rule: SampledFunction refuses that
            _built("function.expr", lambda e: SampledFunction(prof.x_rule, evaluate(e, prof.x_rule.nodes)), expr)
    _check_rules(prof, M, field)
    return k, M, P, prof, (fn["type"], data)


def _atomic_write(path, text):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _strict(payload):
    """payload with every non-finite float, at any depth, as "inf", "-inf" or "nan" (strict JSON has none)."""
    if isinstance(payload, dict):
        return {key: _strict(val) for key, val in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_strict(val) for val in payload]
    return str(payload) if isinstance(payload, float) and not math.isfinite(payload) else payload


def _json_text(payload) -> str:
    return json.dumps(_strict(payload), sort_keys=True, indent=1, allow_nan=False) + "\n"


def cmd_transform(cfg, given, out_dir):
    k, M, _, prof, (kind, data) = _build_context(cfg)
    if kind == "bump":
        f, spec = realize_bump(k, M, data, prof)
        g = lcdt_forward(f, k, M, prof.lam_rule)
        miss, peak = np.max(np.abs(g.values - spec.values)), np.max(np.abs(spec.values))
        if miss > ROUND_TRIP_TOL * peak:
            note = (f"round trip: the transform misses the constructed bump spectrum by {miss / peak:.3g} "
                    f"of its peak, beyond {ROUND_TRIP_TOL:g}")
            g = dataclasses.replace(g, warnings=g.warnings + (note,))
    else:
        g = lcdt_forward(data, k, M, prof.lam_rule, x_rule=prof.x_rule)
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "spectrum.csv"), g.to_csv_text())
    _atomic_write(os.path.join(out_dir, "spectrum.json"), _json_text({**g.payload(), "config": given}))
    return 0


def cmd_estimate(cfg, given, which, out_dir):
    k, M, P, prof, (kind, data) = _build_context(cfg)
    est = cfg["estimator"]
    f = data
    if kind == "bump":
        # only estimate_sigma takes physical input: the others need no inverse transform
        f = realize_bump(k, M, data, prof)[0] if which == "sigma" else bump_spectrum(k, M, data, prof)

    args = (f, k, M, P) if which == "poly" else (f, k, M)
    kwargs = {"p": est["p"], "n_max": max(est["n_max"], 40), "lam_rule": prof.lam_rule, "x_rule": prof.x_rule}
    if which == "sigma":
        kwargs.update(n_max=est["n_max"], method=est["method"])
    # looked up at call time, so a rebound module attribute (a tracing wrapper) is honoured
    res = getattr(paleywiener, ESTIMATORS[which])(*args, **kwargs)
    os.makedirs(out_dir, exist_ok=True)
    report = res.to_report()
    report["which"] = which
    if kind == "bump":
        # the exact support radius of the constructed spectrum
        report["support_radius"] = max(abs(edge) for pair in data for edge in pair) / abs(M.b)
    report["sequence_csv"] = "sequence.csv"
    report["config"] = given
    _atomic_write(os.path.join(out_dir, "sequence.csv"), res.sequence.to_csv_text())
    _atomic_write(os.path.join(out_dir, "report.json"), _json_text(report))
    return 0


def cmd_verify(suite, out_dir):
    report = verify_mod.run(suite)
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "verify_report.json"), _json_text(report))
    for c in report["checks"]:
        flag = "PASS" if c["passed"] else "FAIL"
        print(f"[{flag}] {c['suite']}/{c['name']}: measured={c['measured']:.6g} tol={c['tolerance']:.6g}")
    print(f"{report['n_checks'] - report['n_failed']}/{report['n_checks']} checks passed")
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lcdunkl", description="linear canonical Dunkl transform toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", help="forward transform; writes spectrum CSV + JSON")
    p_tr.add_argument("--config", default=None)
    p_tr.add_argument("--out", default="out")

    p_es = sub.add_parser("estimate", help="run a spectral-support estimator")
    p_es.add_argument("--config", default=None)
    p_es.add_argument("--out", default="out")
    p_es.add_argument("--which", default="sigma", choices=list(ESTIMATORS))

    p_ve = sub.add_parser("verify", help="run the built-in verification suites")
    p_ve.add_argument("--out", default="out")
    p_ve.add_argument("--suite", default="all", choices=("all",) + verify_mod.SUITES)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.out)
        given, cfg = _load_config(args.config)
        if args.command == "transform":
            return cmd_transform(cfg, given, args.out)
        return cmd_estimate(cfg, given, args.which, args.out)
    except ConfigError as exc:
        print(json.dumps({"error": {"field": exc.field, "message": exc.message}}, sort_keys=True))
        return 2
    except (ParameterError, RangeError, ShapeMismatchError, ResourceBudgetError) as exc:
        print(json.dumps({"error": {"field": "parameters", "message": str(exc)}}, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
