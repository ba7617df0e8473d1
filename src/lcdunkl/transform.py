"""Forward and inverse linear canonical Dunkl transform by quadrature.

The direct O(N_x * N_lambda) method is deliberate: grids are desk scale
and the error budget stays attributable. The kernel
E_k(-i mu, x) = j_k(mu x) - i mu x j_{k+1}(mu x) / (2(k+1)) is a part
even in mu x plus a part odd in it, so both parts are tabulated on the
folded grids unique|freq| x unique|x| only: j_k(t) and the fused odd
factor t j_{k+1}(t) / (2(k+1)), t = |freq||x| / |b|. On mirror-symmetric
rules that quarters the table. At every order but -1/2 (cos), the
tables are piecewise Chebyshev interpolants (specfun._clenshaw) under
the same accuracy contract, fitted from max|t| alone before the
argument array exists and filled so that a build peaks near the 16
bytes per entry of the pair (README "Backends"). One cached pair serves
both directions of a grid pair, and the cache holds at most
TABLE_BUDGET bytes, dropping its oldest pairs first. A pair is stored
C-ordered with its rows on the longer folded grid. On bump profiles
that is |x|: the inverse of a p != 2 norm sequence contracts its
n_max + 1 columns against C order, and the one-column forward
transforms read the transposed view.
_lcdt_folded is the one LCDT core, and only this module reads its folded
sums: _lcdt_apply unfolds them onto output nodes, and _lcdt_lp_norms
reduces the L^p norms of p != 2 norm sequences off its row blocks.

Every route that takes function input (lcdt_forward, which
sobolev.derivative_via_spectrum reads at (0, b; -1/b, 0), and
chirp_factorized_forward) gets its samples from _sampled: it samples a
SymExpr on the x rule and raises the tail-bound AccuracyWarnings, passes
a SampledFunction through, and refuses rules built for another Dunkl
parameter k. All contract on the same table pair, keyed on
unique|lam| x unique|x| at |b| with the lam rule's classes; the chirp
route runs _lcdt_apply at (0, b; -1/b, d), whose x chirp is 1.

A Spectrum is recorded in the format of quadrature: its payload() is
its SampledFunction's plus metadata(), and its CSV comes from the one
writer quadrature._csv_text.
"""

import json
import math
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyWarning, ParameterError
from .quadrature import QuadratureRule, SampledFunction, _csv_text, _fields_equal, _lp_norms
from .specfun import (_CHUNK, CanonicalMatrix, _clenshaw, _panel_fit, bessel_j_grid, kval, matval, principal_power,
                      regularized_gamma)
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


@dataclass(frozen=True, eq=False)
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

    __eq__ = _fields_equal

    def as_sampled(self) -> SampledFunction:
        return SampledFunction(self.rule, self.values, label=self.label)

    def to_csv_text(self) -> str:
        return _csv_text("lambda,re,im", self.rule.nodes, self.values.real, self.values.imag)

    def metadata(self) -> dict:
        return {
            "k": self.k,
            "matrix": {"a": self.M.a, "b": self.M.b, "c": self.M.c, "d": self.M.d},
            "label": self.label,
            "warnings": list(self.warnings),
        }

    def payload(self) -> dict:
        """The sampled payload plus metadata(), which from_json_text reads back bit for bit."""
        return {**self.as_sampled().payload(), **self.metadata()}

    def to_json_text(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    @classmethod
    def from_json_text(cls, text: str) -> "Spectrum":
        payload = json.loads(text)
        s, m = SampledFunction.from_payload(payload), payload["matrix"]
        return cls(rule=s.rule, values=s.values, k=payload["k"], M=CanonicalMatrix(m["a"], m["b"], m["c"], m["d"]),
                   label=s.label, warnings=tuple(payload.get("warnings", ())))


# ---------------------------------------------------------------------------
# folded kernel tables

TABLE_BUDGET = 256 * 2**20  # bytes of kernel tables kept between calls
# output classes per block of the p != 2 fold: at MAX_N_SPECTRAL its GEMM outputs stay under 128 KiB
_FOLD_ROWS = 128
_tables: dict = {}


def _bessel_tables(k: float, fa: np.ndarray, xa: np.ndarray, absb: float):
    """j_k(t) and t j_{k+1}(t) / (2(k+1)) on t = outer(fa, xa) / absb.

    fa and xa are sorted unique magnitudes. Both orientations of a grid
    pair share one cached pair of tables, stored C-ordered with its rows on
    the longer grid (on the smaller bytes at equal lengths); the other
    orientation reads the transposed view. Both orders are fitted before t
    exists, from its corner entry: on sorted magnitudes, with rounding
    monotone, that is max t bit for bit, and the fit reads max t alone.
    j_k is filled over the whole t (cos at k = -1/2), t goes, and the odd
    table is filled by row blocks of about _CHUNK entries of t, recomputed
    bit for bit (README "Backends").
    """
    ka, kb = fa.tobytes(), xa.tobytes()
    swap = ka > kb if fa.size == xa.size else xa.size > fa.size
    key = (k, absb, kb, ka) if swap else (k, absb, ka, kb)
    got = _tables.get(key)
    if got is None:
        rows, cols = (xa, fa) if swap else (fa, xa)
        corner = float(rows[-1] * cols[-1] / absb)
        even_fit, odd_fit = _panel_fit(k, corner), _panel_fit(k + 1.0, corner)
        t = np.multiply.outer(rows, cols) / absb
        even = bessel_j_grid(k, t) if even_fit is None else _clenshaw(even_fit, t, np.empty(t.shape))
        del t
        odd = np.empty(even.shape)
        step = max(1, _CHUNK // cols.size)
        for lo in range(0, rows.size, step):
            t = np.multiply.outer(rows[lo:lo + step], cols) / absb
            _clenshaw(odd_fit, t, odd[lo:lo + step])
            odd[lo:lo + step] *= t
        odd *= 0.5 / (k + 1.0)
        got = (even, odd)
        size = sum(a.nbytes for a in got)
        if size <= TABLE_BUDGET:
            held = sum(a.nbytes for pair in _tables.values() for a in pair)
            while held + size > TABLE_BUDGET:
                held -= sum(a.nbytes for a in _tables.pop(next(iter(_tables))))
            _tables[key] = got
    return (got[0].T, got[1].T) if swap else got


def _lcdt_folded(k: float, M: CanonicalMatrix, out_rule: QuadratureRule, rule: QuadratureRule, fvals: np.ndarray):
    """The LCDT at M of samples fvals on rule, folded onto the classes of out_rule: (sums, c).

    fvals is a vector or an (n_x, m) block of columns. sums(rows) runs the
    two GEMMs for the slice rows of the output classes and returns (ev, s):
    at an output node y of class j the transform is
    c e^{i d y^2/(2b)} (ev_j - sign(y) s_j), with ev the even sums, s the odd
    sums times i sign(b) and c = (ib)^(-(k+1)). The chirped, weighted input
    is prepared once: it folds onto unique|x| (two gathers through
    rule.fold), leaving out the outer classes whose folded input is zero in
    every column (exact), and meets each real table in one GEMM per call of
    sums. The odd table vanishes where |x| or |y| is 0, so a node at 0 joins
    the even sums only.
    """
    xa, pos, neg = rule.fold
    x = rule.nodes
    chirp = np.exp(0.5j * (M.a / M.b) * x * x)[:, None]
    wf = np.zeros((x.size + 1, fvals.size // x.size), dtype=np.complex128)  # last row: a missing node
    np.multiply(rule.weights[:, None], chirp * fvals.reshape(x.size, -1), out=wf[:-1])
    fe, fo = wf[neg] + wf[pos], wf[pos] - wf[neg]
    held = np.flatnonzero(np.any(fe, axis=1) | np.any(fo, axis=1))
    cut = slice(held[0], held[-1] + 1) if held.size else slice(0, 0)
    # |b| as 1/|1/b|, the key the cached pairs have always been built under
    even, odd = _bessel_tables(k, out_rule.fold[0], xa, 1.0 / abs(1.0 / M.b))
    fe, fo = fe[cut].view(np.float64), fo[cut].view(np.float64)

    def sums(rows):
        ev = (even[rows, cut] @ fe).view(np.complex128)
        s = (odd[rows, cut] @ fo).view(np.complex128)
        s *= math.copysign(1.0, M.b) * 1j
        return ev, s

    return sums, principal_power(1j * M.b, -(k + 1.0))


def _lcdt_lp_norms(k: float, M: CanonicalMatrix, out_rule: QuadratureRule, rule: QuadratureRule, cols: np.ndarray,
                   p: float) -> np.ndarray:
    """L^p norms on out_rule of the LCDT at M of the columns of cols, off the folded sums, never unfolded.

    At y of class j the modulus is |c| |ev_j - sign(y) s_j|, so _lp_norms gets,
    per block of _FOLD_ROWS classes and sign of y, the weights (0 where no
    node has that sign) and the moduli.
    """
    sums, c = _lcdt_folded(k, M, out_rule, rule, cols)
    _, pos, neg = out_rule.fold
    w = np.append(out_rule.weights, 0.0)

    def blocks():
        for lo in range(0, pos.size, _FOLD_ROWS):
            rows = slice(lo, lo + _FOLD_ROWS)
            ev, s = sums(rows)
            for combine, side in ((np.subtract, pos[rows]), (np.add, neg[rows])):
                mags = np.abs(combine(ev, s))
                mags[side == len(out_rule)] = 0.0
                yield w[side], mags

    return abs(c) * _lp_norms(p, blocks(), cols.shape[1])


def _unfold(out_rule: QuadratureRule, ev: np.ndarray, s: np.ndarray) -> np.ndarray:
    """ev_j - sign(y) s_j at each node y of out_rule, j the class of |y| (one row per node)."""
    _, pos, neg = out_rule.fold
    out = np.empty((len(out_rule) + 1, ev.shape[1]), dtype=np.complex128)
    out[pos], out[neg] = ev - s, ev + s
    return out[:-1]


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
    """_lcdt_folded unfolded onto the nodes lam of lam_rule; fvals is a vector or an (n_x, m) block."""
    sums, c = _lcdt_folded(k, M, lam_rule, rule, fvals)
    lam = lam_rule.nodes
    chirp = np.exp(0.5j * (M.d / M.b) * lam * lam)[(slice(None),) + (None,) * (fvals.ndim - 1)]
    return c * chirp * _unfold(lam_rule, *sums(slice(None))).reshape(lam.shape + fvals.shape[1:])


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
