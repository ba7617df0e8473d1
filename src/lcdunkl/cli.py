"""Command-line entry point: transform, estimate, verify.

One flat JSON config per run; every default is filled in and echoed
into the output metadata so any reported number can be reproduced.
Data files carry no timestamps and are written atomically.
"""

import argparse
import json
import math
import os
import sys
import tempfile

from . import paleywiener
from . import verify as verify_mod
from .corpus import bump_profile, gauss_profile, realize_bump
from .errors import ParameterError, RangeError, ResourceBudgetError, ShapeMismatchError
from .operators import MAX_N_SPECTRAL, RealPolynomial
from .paleywiener import support_radius_oracle
from .specfun import CanonicalMatrix, DunklParameter
from .symfun import expr_from_json
from .transform import lcdt_forward

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

# `estimate --which` choice -> estimator name in paleywiener
ESTIMATORS = {"sigma": "estimate_sigma", "delta": "estimate_delta", "poly": "poly_domain_test",
              "compact": "compact_spectrum_test", "vanishing": "vanishing_interval_detect"}


class ConfigError(Exception):
    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


def _merge_defaults(cfg):
    out = json.loads(json.dumps(DEFAULT_CONFIG))
    for key, val in (cfg or {}).items():
        if isinstance(out.get(key), dict):
            if not isinstance(val, dict):
                raise ConfigError(key, f"must be a JSON object, got {val!r}")
            out[key].update(val)
        else:
            out[key] = val
    return out


def _load_config(path):
    if path is None:
        return _merge_defaults({})
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("config", f"cannot read config: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return _merge_defaults(raw)


def _build_context(cfg):
    try:
        k = float(cfg["k"])
    except (TypeError, ValueError):
        raise ConfigError("k", "must be a real number")
    try:
        k = DunklParameter(k).k
        finite = math.isfinite(2.0 ** (k + 1.0) * math.gamma(k + 1.0))  # Dunkl measure normalization
    except ParameterError as exc:
        raise ConfigError("k", str(exc))
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError("k", f"2^(k+1) Gamma(k+1) of the Dunkl measure overflows at k = {k!r}")
    m = cfg["matrix"]
    try:
        M = CanonicalMatrix(m["a"], m["b"], m["c"], m["d"])
    except ParameterError as exc:
        raise ConfigError(f"matrix.{'b' if 'matrix.b' in str(exc) else 'det'}", str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("matrix", f"needs numeric entries a, b, c, d: {exc}")
    fn = cfg["function"]
    kind = fn.get("type")
    if kind == "bump":
        try:
            intervals = tuple((float(lo), float(hi)) for lo, hi in fn.get("intervals") or ())
        except (TypeError, ValueError):
            intervals = ()
        if not intervals or not all(lo < hi for lo, hi in intervals):
            raise ConfigError("function.intervals", "need nonempty [lo, hi] pairs of numbers with lo < hi")
        if fn.get("symmetrize"):
            intervals = tuple((-hi, -lo) for lo, hi in intervals) + intervals
        try:
            prof = bump_profile(k, intervals, b=M.b)
        except ParameterError as exc:
            raise ConfigError("function.intervals", str(exc))
        return k, M, prof, ("bump", intervals)
    if kind == "symexpr":
        try:
            expr = expr_from_json(fn["expr"])
        except (KeyError, IndexError, TypeError, ValueError, AttributeError, ParameterError) as exc:
            raise ConfigError("function.expr", f"invalid expression: {exc}")
        g = cfg["grid"]
        try:
            sizes = dict(
                X=float(g["x_radius"]),
                x_panels=int(g["x_panels"]),
                x_nodes=int(g["x_nodes"]),
                L=float(g["lambda_radius"]),
                l_panels=int(g["lambda_panels"]),
                l_nodes=int(g["lambda_nodes"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError("grid", f"needs numeric radii and integer panel and node counts: {exc}")
        try:
            prof = gauss_profile(k, **sizes)
        except ParameterError as exc:
            raise ConfigError("grid", str(exc))
        return k, M, prof, ("symexpr", expr)
    raise ConfigError("function.type", f"must be 'bump' or 'symexpr', got {kind!r}")


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


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def cmd_transform(cfg, out_dir):
    k, M, prof, (kind, data) = _build_context(cfg)
    if kind == "bump":
        f, spec = realize_bump(k, M, data, prof)
        g = lcdt_forward(f, k, M, prof.lam_rule)
    else:
        g = lcdt_forward(data, k, M, prof.lam_rule, x_rule=prof.x_rule)
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "spectrum.csv"), g.to_csv_text())
    payload = json.loads(g.to_json_text())
    payload["config"] = cfg
    _atomic_write(os.path.join(out_dir, "spectrum.json"), _json_text(payload))
    return 0


def _estimator_number(est_cfg, name, convert, kind):
    try:
        return convert(est_cfg[name])
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"estimator.{name}", f"must be {kind}, got {est_cfg[name]!r}")


def _estimator_poly(est_cfg):
    try:
        P = RealPolynomial(tuple(est_cfg["poly"]))
    except (TypeError, ValueError, ParameterError):
        P = None
    if P is None or P.degree < 1 or not all(map(math.isfinite, P.coefficients)):
        raise ConfigError("estimator.poly", f"must list finite ascending coefficients of a "
                                            f"non-constant polynomial, got {est_cfg['poly']!r}")
    return P


def cmd_estimate(cfg, which, out_dir):
    est_cfg = cfg["estimator"]
    p = _estimator_number(est_cfg, "p", float, "a number >= 1 or 'inf'")
    if not p >= 1:
        raise ConfigError("estimator.p", f"must be a number >= 1 or 'inf', got {est_cfg['p']!r}")
    n_max = _estimator_number(est_cfg, "n_max", int, "a finite integer")
    if not 1 <= n_max <= MAX_N_SPECTRAL:
        raise ConfigError("estimator.n_max", f"must lie in [1, {MAX_N_SPECTRAL}], got {n_max}")
    method = est_cfg["method"]
    if method not in paleywiener.METHODS:
        raise ConfigError("estimator.method", f"must be one of {list(paleywiener.METHODS)}, got {method!r}")
    P = _estimator_poly(est_cfg)
    k, M, prof, (kind, data) = _build_context(cfg)
    f, oracle = data, None
    if kind == "bump":
        physical, spec = realize_bump(k, M, data, prof)
        f = physical if which == "sigma" else spec
        oracle = support_radius_oracle(spec, 1e-10)

    args = (f, k, M, P) if which == "poly" else (f, k, M)
    kwargs = {"p": p, "n_max": max(n_max, 40), "lam_rule": prof.lam_rule, "x_rule": prof.x_rule}
    if which == "sigma":
        kwargs.update(n_max=n_max, method=method)
    # looked up at call time, so a rebound module attribute (a tracing wrapper) is honoured
    res = getattr(paleywiener, ESTIMATORS[which])(*args, **kwargs)
    os.makedirs(out_dir, exist_ok=True)
    report = res.to_report()
    report["which"] = which
    if oracle is not None:
        report["support_radius_oracle"] = oracle
    report["sequence_csv"] = "sequence.csv"
    report["config"] = cfg
    # infinities are not valid JSON; report them as strings
    for key, val in list(report.items()):
        if isinstance(val, float) and math.isinf(val):
            report[key] = "inf"
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
    p_ve.add_argument("--config", default=None)
    p_ve.add_argument("--out", default="out")
    p_ve.add_argument("--suite", default="all",
                      choices=["all", "specfun", "transform", "operators", "sobolev", "pw"])

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.out)
        cfg = _load_config(args.config)
        if args.command == "transform":
            return cmd_transform(cfg, args.out)
        return cmd_estimate(cfg, args.which, args.out)
    except ConfigError as exc:
        print(json.dumps({"error": {"field": exc.field, "message": exc.message}}, sort_keys=True))
        return 2
    except (ParameterError, RangeError, ShapeMismatchError, ResourceBudgetError) as exc:
        print(json.dumps({"error": {"field": "parameters", "message": str(exc)}}, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
