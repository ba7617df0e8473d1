"""Forward and inverse linear canonical Dunkl transform by quadrature.

The direct O(N_x * N_lambda) method is deliberate: grids are desk scale
and the error budget stays attributable. The kernel
E_k(-i mu, x) = j_k(mu x) - i mu x j_{k+1}(mu x) / (2(k+1)) is a part
even in mu x plus a part odd in it, so both parts are tabulated on the
folded grids unique|freq| x unique|x| only: j_k(t) and the fused odd
factor t j_{k+1}(t) / (2(k+1)), t = |freq||x| / |b|. On mirror-symmetric
rules that quarters the table. One cached pair serves both directions
of a grid pair (the other one reads the transposed view), and the cache
holds at most TABLE_BUDGET bytes, dropping its oldest pairs first.
"""

import json
import math
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc

from .errors import AccuracyWarning, ParameterError
from .quadrature import QuadratureRule, SampledFunction
from .specfun import CanonicalMatrix, bessel_j_grid, kval, matval, principal_power
from .symfun import NodeProd, NodeSum, PolySum, QuotPow, SymExpr, evaluate, gaussian

__all__ = [
    "Spectrum",
    "lcdt_forward",
    "lcdt_inverse",
    "chirp_factorized_forward",
    "dunkl_transform",
    "dunkl_values_at",
    "tail_mass_estimate",
]

TAIL_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """LCDT values on a symmetric frequency rule, with provenance."""

    rule: QuadratureRule
    values: np.ndarray
    k: float
    M: CanonicalMatrix
    label: str = field(default="")
    warnings: tuple = field(default=())

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if values.shape != self.rule.nodes.shape:
            raise ParameterError("spectrum values must match the frequency rule")
        if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
            raise ParameterError("spectrum values must be finite")
        object.__setattr__(self, "values", values)

    def as_sampled(self) -> SampledFunction:
        return SampledFunction(self.rule, self.values, label=self.label)

    def to_csv_text(self) -> str:
        lines = ["lambda,re,im"]
        for lam, v in zip(self.rule.nodes, self.values):
            lines.append(f"{float(lam)!r},{float(v.real)!r},{float(v.imag)!r}")
        return "\n".join(lines) + "\n"

    def metadata(self) -> dict:
        return {
            "k": self.k,
            "matrix": {"a": self.M.a, "b": self.M.b, "c": self.M.c, "d": self.M.d},
            "label": self.label,
            "warnings": list(self.warnings),
        }

    def to_json_text(self) -> str:
        payload = self.metadata()
        payload["rule"] = {
            "k": self.rule.k,
            "X": self.rule.X,
            "nodes": self.rule.nodes.tolist(),
            "weights": self.rule.weights.tolist(),
        }
        payload["re"] = self.values.real.tolist()
        payload["im"] = self.values.imag.tolist()
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json_text(cls, text: str) -> "Spectrum":
        payload = json.loads(text)
        rule = QuadratureRule(
            nodes=np.array(payload["rule"]["nodes"], dtype=np.float64),
            weights=np.array(payload["rule"]["weights"], dtype=np.float64),
            X=payload["rule"]["X"],
            k=payload["rule"]["k"],
        )
        m = payload["matrix"]
        return cls(
            rule=rule,
            values=np.array(payload["re"], dtype=np.float64) + 1j * np.array(payload["im"]),
            k=payload["k"],
            M=CanonicalMatrix(m["a"], m["b"], m["c"], m["d"]),
            label=payload.get("label", ""),
            warnings=tuple(payload.get("warnings", ())),
        )


# ---------------------------------------------------------------------------
# folded kernel tables

TABLE_BUDGET = 256 * 2**20  # bytes of kernel tables kept between calls
_tables: dict = {}


def _bessel_tables(k: float, fa: np.ndarray, xa: np.ndarray, absb: float):
    """j_k(t) and t j_{k+1}(t) / (2(k+1)) on t = outer(fa, xa) / absb.

    fa and xa are sorted unique magnitudes. Both orientations of a grid
    pair share one cached pair of tables.
    """
    ka, kb = fa.tobytes(), xa.tobytes()
    swap = ka > kb
    key = (k, absb, kb, ka) if swap else (k, absb, ka, kb)
    got = _tables.get(key)
    if got is None:
        t = np.multiply.outer(*((xa, fa) if swap else (fa, xa))) / absb
        got = (bessel_j_grid(k, t), bessel_j_grid(k + 1.0, t) * t * (0.5 / (k + 1.0)))
        size = sum(a.nbytes for a in got)
        if size <= TABLE_BUDGET:
            held = sum(a.nbytes for pair in _tables.values() for a in pair)
            while held + size > TABLE_BUDGET:
                held -= sum(a.nbytes for a in _tables.pop(next(iter(_tables))))
            _tables[key] = got
    return (got[0].T, got[1].T) if swap else got


def _fold_columns(inv: np.ndarray, n: int, v: np.ndarray) -> np.ndarray:
    """Sums of the rows of v over the n fold classes of inv, as (re, im) column pairs."""
    r = np.ascontiguousarray(v, dtype=np.complex128).reshape(inv.size, -1).view(np.float64)
    c = r.shape[1]
    return np.bincount((inv[:, None] * c + np.arange(c)).ravel(), r.ravel(), n * c).reshape(n, c)


def _core_apply(k: float, freqs: np.ndarray, rule: QuadratureRule, fvals: np.ndarray, inv_b: float):
    """sum_j w_j f_j E_k(-i freq inv_b, x_j) for every frequency.

    fvals is a vector or an (n_x, m) block, whose columns are transformed
    together. w f folds onto unique|x| as an even sum and a sign(x)-weighted
    odd sum; each meets its real table in one GEMM against (re, im)
    columns, and the odd part unfolds with the sign of freq * inv_b.
    """
    x = rule.nodes
    fa, finv = np.unique(np.abs(freqs), return_inverse=True)
    xa, xinv = np.unique(np.abs(x), return_inverse=True)
    even, odd = _bessel_tables(k, fa, xa, 1.0 / abs(inv_b))
    wf = rule.weights[:, None] * fvals.reshape(x.size, -1)
    ev = (even @ _fold_columns(xinv, xa.size, wf)).view(np.complex128)
    od = (odd @ _fold_columns(xinv, xa.size, np.sign(x)[:, None] * wf)).view(np.complex128)
    out = ev[finv] - 1j * np.sign(freqs * inv_b)[:, None] * od[finv]
    return out.reshape(freqs.shape + fvals.shape[1:])


def _as_sampled(f, x_rule, k):
    if isinstance(f, SampledFunction):
        return f, ()
    if isinstance(f, SymExpr):
        if x_rule is None:
            raise ParameterError("symbolic input requires an explicit x_rule")
        vals = evaluate(f, x_rule.nodes)
        warns = []
        tail = tail_mass_estimate(f, x_rule)
        if tail is None:
            warns.append("tail mass of symbolic input could not be bounded analytically")
        else:
            scale = float(np.sum(x_rule.weights * np.abs(vals))) + 1e-300
            if tail > TAIL_TOL * max(scale, 1e-12):
                warns.append(
                    f"estimated tail mass {tail:.3e} beyond X={x_rule.X} exceeds {TAIL_TOL} of scale"
                )
        return SampledFunction(x_rule, vals), tuple(warns)
    raise ParameterError(f"unsupported input type {type(f).__name__}")


def tail_mass_estimate(e: SymExpr, rule: QuadratureRule):
    """Upper bound on the L1 Dunkl-measure mass of e outside [-X, X].

    Returns None when the expression class admits no simple closed-form
    bound (quotient or product nodes).
    """
    if isinstance(e, NodeSum):
        parts = [tail_mass_estimate(ch, rule) for ch in e.children]
        if any(p is None for p in parts):
            return None
        return sum(parts)
    if isinstance(e, (QuotPow, NodeProd)):
        return None
    if not isinstance(e, PolySum):
        return None
    k = rule.k
    X = rule.X
    total = 0.0
    for t in e.terms:
        a = -t.alpha.real
        br = abs(t.beta.real)
        a_eff = a - br / X  # e^{|Re beta| x} <= e^{(|Re beta|/X) x^2} for x >= X
        if a_eff <= 0:
            return None
        # |term| <= |coeff| x^m e^{-a_eff x^2} (|j| <= 1); integrate the tail
        s = 0.5 * (t.m + 2.0 * k + 2.0)
        g = float(gammaincc(s, a_eff * X * X)) * math.gamma(s) / a_eff**s
        total += abs(t.coeff) * g / (2.0 ** (k + 1.0) * math.gamma(k + 1.0))
    return total


def _lcdt_apply(k: float, M: CanonicalMatrix, lam: np.ndarray, rule: QuadratureRule, fvals: np.ndarray):
    """(ib)^(-(k+1)) e^{i d lam^2/(2b)} core(e^{i a x^2/(2b)} f) at the frequencies lam.

    fvals is a vector of samples on rule or an (n_x, m) block of columns.
    """
    x = rule.nodes
    col = (slice(None),) + (None,) * (fvals.ndim - 1)
    chirp_x = np.exp(0.5j * (M.a / M.b) * x * x)[col]
    chirp_l = np.exp(0.5j * (M.d / M.b) * lam * lam)[col]
    core = _core_apply(k, lam, rule, chirp_x * fvals, 1.0 / M.b)
    return principal_power(1j * M.b, -(k + 1.0)) * chirp_l * core


def lcdt_forward(f, k, M, lam_rule: QuadratureRule, x_rule: QuadratureRule | None = None) -> "Spectrum":
    """D^M_k(f) on the nodes of lam_rule.

    f may be a SampledFunction (carrying its own rule) or a SymExpr with
    x_rule supplied. The prefactor (ib)^(-(k+1)) is taken on the
    principal branch.
    """
    kk = kval(k)
    mm = matval(M)
    fs, warns = _as_sampled(f, x_rule, kk)
    if fs.rule.k != kk or lam_rule.k != kk:
        raise ParameterError("rules were built for a different Dunkl parameter")
    values = _lcdt_apply(kk, mm, lam_rule.nodes, fs.rule, fs.values)
    for w in warns:
        _warnings.warn(w, AccuracyWarning)
    return Spectrum(rule=lam_rule, values=values, k=kk, M=mm, label=getattr(f, "label", ""), warnings=warns)


def lcdt_inverse(g: Spectrum, x_rule: QuadratureRule) -> SampledFunction:
    """Inverse transform: lcdt_forward with the inverse matrix applied to g."""
    back = lcdt_forward(g.as_sampled(), g.k, g.M.inverse(), lam_rule=x_rule)
    return SampledFunction(x_rule, back.values, label=g.label)


def dunkl_transform(f, k, lam_rule: QuadratureRule, x_rule: QuadratureRule | None = None) -> "Spectrum":
    """Plain Dunkl transform (no chirps, no prefactor) on lam_rule."""
    kk = kval(k)
    fs, warns = _as_sampled(f, x_rule, kk)
    vals = _core_apply(kk, lam_rule.nodes, fs.rule, fs.values, 1.0)
    eye = CanonicalMatrix(0.0, 1.0, -1.0, 0.0)
    for w in warns:
        _warnings.warn(w, AccuracyWarning)
    return Spectrum(rule=lam_rule, values=vals, k=kk, M=eye, label=getattr(f, "label", ""), warnings=warns)


def dunkl_values_at(f: SampledFunction, k, freqs: np.ndarray) -> np.ndarray:
    """Plain Dunkl transform of f evaluated at arbitrary frequencies."""
    kk = kval(k)
    return _core_apply(kk, np.asarray(freqs, dtype=np.float64), f.rule, f.values, 1.0)


def chirp_factorized_forward(f: SymExpr, k, M, lam_rule: QuadratureRule, x_rule: QuadratureRule) -> "Spectrum":
    """Second route to D^M_k(f): chirp multiply, plain Dunkl at lam/b, chirp.

    D^M_k(f)(lam) = e^{i d lam^2/(2b)} (ib)^{-(k+1)} D_k(e^{i a x^2/(2b)} f)(lam/b)
    """
    if not isinstance(f, SymExpr):
        raise ParameterError("the chirp-factorized route takes a symbolic input")
    kk = kval(k)
    mm = matval(M)
    chirped = gaussian(0.5j * (mm.a / mm.b)) * f
    fs, warns = _as_sampled(chirped, x_rule, kk)
    lam = lam_rule.nodes
    dvals = _core_apply(kk, lam / mm.b, fs.rule, fs.values, 1.0)
    pref = principal_power(1j * mm.b, -(kk + 1.0))
    values = pref * np.exp(0.5j * (mm.d / mm.b) * lam * lam) * dvals
    for w in warns:
        _warnings.warn(w, AccuracyWarning)
    return Spectrum(rule=lam_rule, values=values, k=kk, M=mm, label=getattr(f, "label", ""), warnings=warns)
