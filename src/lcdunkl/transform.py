"""Forward and inverse linear canonical Dunkl transform by quadrature.

The direct O(N_x * N_lambda) method is deliberate: grids are desk scale
and the error budget stays attributable. The kernel
E_k(-i mu, x) = j_k(mu x) - i mu x j_{k+1}(mu x) / (2(k+1)) is a part
even in mu x plus a part odd in it, so both parts are tabulated on the
folded grids unique|freq| x unique|x| only: j_k(t) and the fused odd
factor t j_{k+1}(t) / (2(k+1)), t = |freq||x| / |b|. On mirror-symmetric
rules that quarters the table. At every order but -1/2 (cos), the
tables are piecewise Chebyshev interpolants (specfun._bessel_j_tables)
under the same accuracy contract. One cached pair serves both directions
of a grid pair (the other one reads the transposed view), and the cache
holds at most TABLE_BUDGET bytes, dropping its oldest pairs first.
_core_folded returns the even and odd sums on unique|freq| (p != 2 norm
sequences read their norms off these), and _core_apply unfolds them.

Every route that takes function input (lcdt_forward,
chirp_factorized_forward, sobolev.derivative_via_spectrum) gets its
samples from _sampled: it samples a SymExpr on the x rule and raises the
tail-bound AccuracyWarnings, passes a SampledFunction through, and
refuses rules built for another Dunkl parameter k. All three contract on
the same table pair, keyed on unique|lam| x unique|x| at |b| with the
lam rule's fold: the chirp route as _lcdt_apply at (0, b; -1/b, d), the
spectral derivatives as _core_apply at 1/b.
"""

import json
import math
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyWarning, ParameterError
from .quadrature import QuadratureRule, SampledFunction
from .specfun import CanonicalMatrix, _bessel_j_tables, kval, matval, principal_power, regularized_gamma
from .symfun import SymExpr, evaluate, gaussian

__all__ = [
    "Spectrum",
    "lcdt_forward",
    "lcdt_inverse",
    "chirp_factorized_forward",
    "dunkl_transform",
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
        even, odd = _bessel_j_tables((k, k + 1.0), t)
        odd *= t
        odd *= 0.5 / (k + 1.0)
        got = (even, odd)
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


def _core_folded(k: float, fold, rule: QuadratureRule, fvals: np.ndarray, inv_b: float):
    """Even and odd parts ev, od of sum_j w_j f_j E_k(-i freq inv_b, x_j) on unique|freq|.

    fold is (unique|freq|, class of each freq). fvals is a vector or an
    (n_x, m) block, whose columns are transformed together. w f folds onto
    unique|x| as an even sum and a sign(x)-weighted odd sum; each meets
    its real table in one GEMM against (re, im) columns, leaving out the
    leading and trailing classes whose folded input is zero in every
    column (exact). The transform at freq is ev - i sign(freq inv_b) od.
    """
    xa, xinv = rule.fold
    wf = rule.weights[:, None] * fvals.reshape(rule.nodes.size, -1)
    fe = _fold_columns(xinv, xa.size, wf)
    fo = _fold_columns(xinv, xa.size, np.sign(rule.nodes)[:, None] * wf)
    held = np.flatnonzero(np.any(fe, axis=1) | np.any(fo, axis=1))
    cut = slice(held[0], held[-1] + 1) if held.size else slice(0, 0)
    even, odd = _bessel_tables(k, fold[0], xa, 1.0 / abs(inv_b))
    return (even[:, cut] @ fe[cut]).view(np.complex128), (odd[:, cut] @ fo[cut]).view(np.complex128)


def _core_apply(k: float, freqs: np.ndarray, rule: QuadratureRule, fvals: np.ndarray, inv_b: float, fold):
    """_core_folded unfolded onto freqs, whose fold (unique|freqs|, class of each) is given."""
    ev, od = _core_folded(k, fold, rule, fvals, inv_b)
    finv = fold[1]
    out = ev[finv] - 1j * np.sign(freqs * inv_b)[:, None] * od[finv]
    return out.reshape(freqs.shape + fvals.shape[1:])


def _sampled(f, k, lam_rule: QuadratureRule, x_rule: QuadratureRule | None):
    """f sampled (a SymExpr on x_rule) and its tail-bound warnings, already raised; refuses rules for another k."""
    warns = []
    if isinstance(f, SampledFunction):
        fs = f
    elif isinstance(f, SymExpr):
        if x_rule is None:
            raise ParameterError("symbolic input requires an explicit x_rule")
        fs = SampledFunction(x_rule, evaluate(f, x_rule.nodes))
        tail = tail_mass_estimate(f, x_rule)
        if tail is None:
            warns.append("tail mass of symbolic input could not be bounded analytically")
        else:
            scale = float(np.sum(x_rule.weights * np.abs(fs.values))) + 1e-300
            if tail > TAIL_TOL * max(scale, 1e-12):
                warns.append(
                    f"estimated tail mass {tail:.3e} beyond X={x_rule.X} exceeds {TAIL_TOL} of scale"
                )
    else:
        raise ParameterError(f"unsupported input type {type(f).__name__}")
    if fs.rule.k != k or lam_rule.k != k:
        raise ParameterError("rules were built for a different Dunkl parameter")
    for w in warns:
        _warnings.warn(w, AccuracyWarning)
    return fs, tuple(warns)


def tail_mass_estimate(e: SymExpr, rule: QuadratureRule):
    """Upper bound on the L1 Dunkl-measure mass of e outside [-X, X].

    For |x| >= X, |c / x^j| <= |c| / X^j, so the bound is that of the
    numerator over X^j. Returns None when a term does not decay (its
    Gaussian rate does not beat |Re beta| / X), and inf when the bound
    passes the double range. The bound is formed in log space.
    """
    k = rule.k
    X = rule.X
    total = 0.0
    for t in e.terms:
        a = -t.alpha.real
        br = abs(t.beta.real)
        a_eff = a - br / X  # e^{|Re beta| x} <= e^{(|Re beta|/X) x^2} for x >= X
        if a_eff <= 0:
            return None
        # |term| <= |coeff| x^m e^{-a_eff x^2} (|j_kappa| <= 1); integrate the tail
        s = 0.5 * (t.m + 2.0 * k + 2.0)
        q = regularized_gamma(s, a_eff * X * X)[1]
        if q > 0.0:
            log_g = math.log(q) + math.lgamma(s) - s * math.log(a_eff)
            log_g -= (k + 1.0) * math.log(2.0) + math.lgamma(k + 1.0) + e.j * math.log(X)
            try:
                total += abs(t.coeff) * math.exp(log_g)
            except OverflowError:
                return math.inf
    return total


def _lcdt_apply(k: float, M: CanonicalMatrix, lam_rule: QuadratureRule, rule: QuadratureRule, fvals: np.ndarray):
    """(ib)^(-(k+1)) e^{i d lam^2/(2b)} core(e^{i a x^2/(2b)} f) at the nodes lam of lam_rule.

    fvals is a vector of samples on rule or an (n_x, m) block of columns.
    """
    x, lam = rule.nodes, lam_rule.nodes
    col = (slice(None),) + (None,) * (fvals.ndim - 1)
    chirp_x = np.exp(0.5j * (M.a / M.b) * x * x)[col]
    chirp_l = np.exp(0.5j * (M.d / M.b) * lam * lam)[col]
    core = _core_apply(k, lam, rule, chirp_x * fvals, 1.0 / M.b, lam_rule.fold)
    return principal_power(1j * M.b, -(k + 1.0)) * chirp_l * core


def lcdt_forward(f, k, M, lam_rule: QuadratureRule, x_rule: QuadratureRule | None = None) -> "Spectrum":
    """D^M_k(f) on the nodes of lam_rule.

    f may be a SampledFunction (carrying its own rule) or a SymExpr with
    x_rule supplied. The prefactor (ib)^(-(k+1)) is taken on the
    principal branch.
    """
    kk = kval(k)
    mm = matval(M)
    fs, warns = _sampled(f, kk, lam_rule, x_rule)
    values = _lcdt_apply(kk, mm, lam_rule, fs.rule, fs.values)
    return Spectrum(rule=lam_rule, values=values, k=kk, M=mm, label=getattr(f, "label", ""), warnings=warns)


def lcdt_inverse(g: Spectrum, x_rule: QuadratureRule) -> SampledFunction:
    """Inverse transform: lcdt_forward with the inverse matrix applied to g."""
    back = lcdt_forward(g.as_sampled(), g.k, g.M.inverse(), lam_rule=x_rule)
    return SampledFunction(x_rule, back.values, label=g.label)


def dunkl_transform(f, k, lam_rule: QuadratureRule, x_rule: QuadratureRule | None = None) -> "Spectrum":
    """Dunkl transform as the LCDT at M = (0, 1; -1, 0), whose prefactor i^(-(k+1)) it carries."""
    return lcdt_forward(f, k, CanonicalMatrix(0.0, 1.0, -1.0, 0.0), lam_rule, x_rule=x_rule)


def chirp_factorized_forward(f: SymExpr, k, M, lam_rule: QuadratureRule, x_rule: QuadratureRule) -> "Spectrum":
    """Second route to D^M_k(f): chirp multiply, plain Dunkl at lam/b, chirp.

    D^M_k(f)(lam) = e^{i d lam^2/(2b)} (ib)^{-(k+1)} D_k(e^{i a x^2/(2b)} f)(lam/b)

    The input chirp is applied symbolically; the rest is the direct
    route at (0, b; -1/b, d), whose x-chirp is 1, on the same table pair.
    """
    if not isinstance(f, SymExpr):
        raise ParameterError("the chirp-factorized route takes a symbolic input")
    kk = kval(k)
    mm = matval(M)
    chirped = gaussian(0.5j * (mm.a / mm.b)) * f
    fs, warns = _sampled(chirped, kk, lam_rule, x_rule)
    values = _lcdt_apply(kk, CanonicalMatrix(0.0, mm.b, -1.0 / mm.b, mm.d), lam_rule, fs.rule, fs.values)
    return Spectrum(rule=lam_rule, values=values, k=kk, M=mm, label=getattr(f, "label", ""), warnings=warns)
