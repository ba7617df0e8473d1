"""Exact symbolic test functions for the operator calculus.

Every expression has one normal form, SymExpr: a merged sum of terms
coeff * x^m * exp(alpha x^2 + beta x) * j_kappa(c x) (the numerator) over
one power x^j, j >= 0. The class is closed under sums (common denominator),
products (the powers add), differentiation (c/x^j -> (x c' - j c)/x^(j+1)),
reflection, multiplication by x, and the Dunkl and linear canonical Dunkl
operators. The reflection part of the Dunkl operator, (f(x) - f(-x))/x, is
computed termwise when j = 0 and every beta vanishes (the parity split is
then exact, with no division at all); otherwise it raises j by one, and the
value near 0 comes from the numerator's Taylor series rather than a
cancelling division.
"""

import cmath
import json
import math

import numpy as np

from .errors import ParameterError, ResourceBudgetError
from .specfun import bessel_j_grid, kval, matval

__all__ = [
    "SymExpr",
    "Term",
    "constant",
    "monomial",
    "gaussian",
    "bessel_factor",
    "dunkl_kernel_expr",
    "lcdt_kernel_expr",
    "evaluate",
    "odd_quotient",
    "apply_dunkl",
    "apply_lcd",
    "iterate_op",
    "expr_to_json",
    "expr_from_json",
]

COEFF_DROP_TOL = 1e-15
TAYLOR_SWITCH = 0.05
TAYLOR_EXTRA = 10
MAX_ITERATE = 60
TERM_BUDGET = 500_000
# terms x sample points one evaluation may take: evaluation costs about 30 ns
# per term-point (5e4 terms on a 640-node rule in 0.9 s), so about one second
EVAL_BUDGET = 32_000_000
VANISH_RTOL = 1e-9  # a quotpow child's Taylor coefficients below j, relative to the largest


def _degree(m) -> int:
    """m as an int, from a (numpy) integer or an integral float; a bool, 1.5 or "1" raise ParameterError."""
    if isinstance(m, (int, np.integer)) and not isinstance(m, bool) or isinstance(m, float) and m.is_integer():
        return int(m)
    raise ParameterError(f"monomial degree must be an integer, got {m!r}")


class Term:
    """coeff * x^m * exp(alpha x^2 + beta x) * [j_kappa(c x)]."""

    __slots__ = ("coeff", "m", "alpha", "beta", "kappa", "c")

    def __init__(self, coeff, m=0, alpha=0j, beta=0j, kappa=None, c=None):
        m = m if type(m) is int else _degree(m)
        if m < 0:
            raise ParameterError("monomial degree must be nonnegative")
        coeff, alpha, beta = complex(coeff), complex(alpha), complex(beta)
        if not (cmath.isfinite(coeff) and cmath.isfinite(alpha) and cmath.isfinite(beta)):
            raise ParameterError(f"term coeff, alpha and beta must be finite, got {coeff}, {alpha}, {beta}")
        if alpha.real > 1e-12:
            raise ParameterError("Re(alpha) must be <= 0")
        if kappa is not None:
            kappa, c = float(kappa), abs(float(c))
            if not (-0.5 <= kappa < math.inf and math.isfinite(c)):
                raise ParameterError(f"bessel order must be finite and >= -1/2, and c finite, got {kappa}, {c}")
            if c == 0.0:
                kappa = c = None  # j_kappa(0) = 1
        self.coeff, self.m, self.alpha, self.beta, self.kappa, self.c = coeff, m, alpha, beta, kappa, c

    def key(self):
        return (self.m, self.alpha, self.beta, self.kappa, self.c)

    def scaled(self, s):
        return Term(self.coeff * s, self.m, self.alpha, self.beta, self.kappa, self.c)

    def reflected(self, j=0):
        """This term at -x, over (-x)^j when it is the numerator of c / x^j."""
        sign = -1.0 if (self.m + j) % 2 else 1.0
        return Term(self.coeff * sign, self.m, self.alpha, -self.beta, self.kappa, self.c)

    def series(self, n):
        """The first n Taylor coefficients at 0 of exp(alpha x^2 + beta x) * [j_kappa(c x)]."""
        r = np.arange(1, n)
        q = r[: (n - 1) // 2]
        out = np.cumprod(np.concatenate([[1.0 + 0j], self.beta / r]))
        ratios = [self.alpha / q] + ([] if self.kappa is None else [-0.25 * self.c**2 / (q * (self.kappa + q))])
        for ratio in ratios:
            even = np.zeros(n, dtype=np.complex128)  # a series in x^2, from its successive coefficient ratios
            even[::2] = np.cumprod(np.concatenate([[1.0 + 0j], ratio]))
            out = np.convolve(out, even)[:n]
        return out

    def diff_terms(self):
        out = []
        if self.m >= 1:
            out.append(Term(self.coeff * self.m, self.m - 1, self.alpha, self.beta, self.kappa, self.c))
        if self.alpha != 0:
            out.append(Term(self.coeff * 2 * self.alpha, self.m + 1, self.alpha, self.beta, self.kappa, self.c))
        if self.beta != 0:
            out.append(Term(self.coeff * self.beta, self.m, self.alpha, self.beta, self.kappa, self.c))
        if self.kappa is not None:
            out.append(
                Term(
                    -self.coeff * self.c**2 / (2.0 * (self.kappa + 1.0)),
                    self.m + 1,
                    self.alpha,
                    self.beta,
                    self.kappa + 1.0,
                    self.c,
                )
            )
        return out


class SymExpr:
    """numerator / x^j: a sum of Terms, merged by basis key, over one power x^j (j >= 0).

    Every constructor keeps the numerator vanishing to order j at 0, so the
    quotient extends continuously; for |x| < TAYLOR_SWITCH its value is the
    numerator's Taylor series from index j instead of a cancelling division.
    """

    __slots__ = ("terms", "j", "_taylor")

    def __init__(self, terms=(), j=0):
        merged: dict = {}
        for t in terms:
            key = t.key()
            if key in merged:
                merged[key] = Term(merged[key].coeff + t.coeff, *key)
            else:
                merged[key] = t
        if merged:
            top = max(abs(t.coeff) for t in merged.values())
            cut = COEFF_DROP_TOL * top
            kept = tuple(t for t in merged.values() if abs(t.coeff) > cut)
        else:
            kept = ()
        self.terms = kept
        self.j = int(j)
        self._taylor = None

    def _numerator_at(self, x):
        if len(self.terms) * x.size > EVAL_BUDGET:
            raise ResourceBudgetError(
                f"{len(self.terms)} terms at {x.size} points pass the budget of {EVAL_BUDGET} term-points")
        out = np.zeros(x.shape, dtype=np.complex128)
        bessel_cache: dict = {}
        for t in self.terms:
            v = np.full(x.shape, t.coeff, dtype=np.complex128)
            if t.m:
                v = v * x**t.m
            if t.alpha != 0 or t.beta != 0:
                v = v * np.exp(t.alpha * x * x + t.beta * x)
            if t.kappa is not None:
                bk = (t.kappa, t.c)
                if bk not in bessel_cache:
                    bessel_cache[bk] = bessel_j_grid(t.kappa, t.c * x)
                v = v * bessel_cache[bk]
            out += v
        return out

    def _taylor_coeffs(self):
        """Taylor coefficients of the numerator at 0, indices 0 .. j + TAYLOR_EXTRA."""
        if self._taylor is None:
            n = self.j + TAYLOR_EXTRA + 1
            out = np.zeros(n, dtype=np.complex128)
            for t in self.terms:
                if t.m < n:
                    out[t.m:] += t.coeff * t.series(n - t.m)
            self._taylor = out
        return self._taylor

    def evaluate_array(self, x):
        if not self.j:
            return self._numerator_at(x)
        out = np.empty(x.shape, dtype=np.complex128)
        near = np.abs(x) < TAYLOR_SWITCH
        far = ~near
        if far.any():
            xf = x[far]
            out[far] = self._numerator_at(xf) / xf**self.j
        if near.any():
            xn = x[near]
            acc = np.zeros(xn.shape, dtype=np.complex128)
            coeffs = self._taylor_coeffs()
            for i in range(len(coeffs) - 1, self.j - 1, -1):
                acc = acc * xn + coeffs[i]
            out[near] = acc
        return out

    def _raised(self, r):
        """The numerator times x^r."""
        return [Term(t.coeff, t.m + r, t.alpha, t.beta, t.kappa, t.c) for t in self.terms] if r else list(self.terms)

    def diff(self):
        """(x c' - j c) / x^(j+1) for c / x^j."""
        out = [d for t in self.terms for d in t.diff_terms()]
        if not self.j:
            return SymExpr(out)
        return SymExpr(SymExpr(out)._raised(1) + [t.scaled(-self.j) for t in self.terms], self.j + 1)

    def reflected(self):
        """e(-x) for this e."""
        return SymExpr([t.reflected(self.j) for t in self.terms], self.j)

    def scaled(self, s):
        return SymExpr([t.scaled(s) for t in self.terms], self.j)

    def mul_x(self):
        """x e(x) for this e."""
        if self.j:
            return SymExpr(self.terms, self.j - 1)
        return SymExpr(self._raised(1))

    def __add__(self, other):
        j = max(self.j, other.j)
        return SymExpr(self._raised(j - self.j) + other._raised(j - other.j), j)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def __neg__(self):
        return self.scaled(-1.0)

    def __mul__(self, other):
        if isinstance(other, SymExpr):
            if len(self.terms) * len(other.terms) > TERM_BUDGET:
                raise ResourceBudgetError(
                    f"product of {len(self.terms)} by {len(other.terms)} terms "
                    f"passes the budget of {TERM_BUDGET} terms"
                )
            return SymExpr([_mul_terms(a, b) for a in self.terms for b in other.terms], self.j + other.j)
        return self.scaled(other)

    __rmul__ = __mul__


def _mul_terms(a: Term, b: Term) -> Term:
    if a.kappa is not None and b.kappa is not None:
        raise ParameterError("products of two Bessel factors are outside the supported class")
    kappa, c = (a.kappa, a.c) if a.kappa is not None else (b.kappa, b.c)
    return Term(a.coeff * b.coeff, a.m + b.m, a.alpha + b.alpha, a.beta + b.beta, kappa, c)


# ---------------------------------------------------------------------------
# constructors

def constant(c) -> SymExpr:
    return SymExpr([Term(c)])


def monomial(m: int, coeff=1.0) -> SymExpr:
    return SymExpr([Term(coeff, m=m)])


def gaussian(alpha, beta=0j, coeff=1.0, m=0) -> SymExpr:
    """coeff * x^m * exp(alpha x^2 + beta x)."""
    return SymExpr([Term(coeff, m=m, alpha=alpha, beta=beta)])


def bessel_factor(kappa: float, c: float, coeff=1.0, m=0, alpha=0j) -> SymExpr:
    """coeff * x^m * exp(alpha x^2) * j_kappa(c x)."""
    return SymExpr([Term(coeff, m=m, alpha=alpha, kappa=kappa, c=c)])


def dunkl_kernel_expr(k, lam: float) -> SymExpr:
    """E_k(i lam, .) as an exact expression in x."""
    kk = kval(k)
    return SymExpr(
        [
            Term(1.0, kappa=kk, c=lam),
            Term(1j * lam / (2.0 * (kk + 1.0)), m=1, kappa=kk + 1.0, c=lam),
        ]
    )


def lcdt_kernel_expr(k, M, lam: float) -> SymExpr:
    """E^M_k(lam, .) as an exact expression in x (lam fixed)."""
    kk = kval(k)
    mm = matval(M)
    lam_chirp = complex(np.exp(0.5j * (mm.d / mm.b) * lam * lam))
    alpha = 0.5j * (mm.a / mm.b)
    base = dunkl_kernel_expr(kk, -lam / mm.b)
    return SymExpr(
        [Term(t.coeff * lam_chirp, t.m, t.alpha + alpha, t.beta, t.kappa, t.c) for t in base.terms]
    )


# ---------------------------------------------------------------------------
# operations

def evaluate(e: SymExpr, x):
    """Pointwise value; scalar in, scalar out; array in, array out."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    vals = e.evaluate_array(arr.reshape(-1))
    if scalar:
        return complex(vals[0])
    return vals.reshape(arr.shape)


def odd_quotient(e: SymExpr) -> SymExpr:
    """(e(x) - e(-x)) / x with the x = 0 value equal to 2 e'(0)."""
    if not e.j and all(t.beta == 0 for t in e.terms):
        # parity split: even-degree terms cancel exactly, odd ones halve a power
        out = [
            Term(2.0 * t.coeff, t.m - 1, t.alpha, t.beta, t.kappa, t.c)
            for t in e.terms
            if t.m % 2 == 1
        ]
        return SymExpr(out)
    return SymExpr((e - e.reflected()).terms, e.j + 1)


def apply_dunkl(k, e: SymExpr) -> SymExpr:
    """Dunkl operator: e' + (2k+1)/2 * (e(x) - e(-x))/x."""
    kk = kval(k)
    de = e.diff()
    coeff = 0.5 * (2.0 * kk + 1.0)
    if coeff == 0.0:
        return de
    return de + odd_quotient(e).scaled(coeff)


def apply_lcd(k, M, e: SymExpr) -> SymExpr:
    """Linear canonical Dunkl operator for matrix M: Dunkl part minus i(d/b) x e."""
    mm = matval(M)
    return apply_dunkl(k, e) + e.mul_x().scaled(-1j * mm.d / mm.b)


def iterate_op(k, M, e: SymExpr, n: int) -> SymExpr:
    """n-fold application of the operator for matrix M (pass M.inverse() for iterates of the inverse-matrix operator)."""
    if n < 0:
        raise ParameterError("iteration count must be >= 0")
    if n > MAX_ITERATE:
        raise ParameterError(f"iteration count {n} exceeds the configured maximum {MAX_ITERATE}")
    kk = kval(k)
    mm = matval(M)
    out = e
    for i in range(n):
        out = apply_lcd(kk, mm, out)
        if len(out.terms) > TERM_BUDGET:
            raise ResourceBudgetError(
                f"expression grew to {len(out.terms)} terms after {i + 1} applications "
                f"(budget {TERM_BUDGET}); input is outside the closed class"
            )
    return out


# ---------------------------------------------------------------------------
# JSON serialization (node-tagged); this is the CLI's function input format

def _c2j(z: complex):
    return [z.real, z.imag]


def _j2c(v) -> complex:
    return complex(v[0], v[1])


def expr_to_json(e: SymExpr) -> dict:
    """A sum_of_terms node when j = 0, else one quotpow node over it."""
    terms = []
    for t in e.terms:
        entry = {"coeff": _c2j(t.coeff), "m": t.m, "alpha": _c2j(t.alpha), "beta": _c2j(t.beta)}
        if t.kappa is not None:
            entry["bessel"] = {"kappa": t.kappa, "c": t.c}
        terms.append(entry)
    node = {"type": "sum_of_terms", "terms": terms}
    return {"type": "quotpow", "j": e.j, "child": node} if e.j else node


def expr_from_json(payload) -> SymExpr:
    """Reads sum_of_terms, sum, product and quotpow nodes; a quotpow child must vanish to order j at 0."""
    if isinstance(payload, str):
        payload = json.loads(payload)
    if not isinstance(payload, dict):
        raise ParameterError(f"expression node must be a JSON object, got {payload!r}")
    kind = payload.get("type")
    if kind == "sum_of_terms":
        terms = []
        for entry in payload["terms"]:
            bes = entry.get("bessel")
            terms.append(
                Term(
                    _j2c(entry["coeff"]),
                    entry.get("m", 0),
                    _j2c(entry.get("alpha", [0, 0])),
                    _j2c(entry.get("beta", [0, 0])),
                    None if bes is None else bes["kappa"],
                    None if bes is None else bes["c"],
                )
            )
        return SymExpr(terms)
    if kind == "quotpow":
        j = payload["j"]
        if j != int(j) or j < 1:
            raise ParameterError(f"quotient power must be an integer >= 1, got {j!r}")
        child = expr_from_json(payload["child"])
        out = SymExpr(child.terms, child.j + int(j))
        coeffs = np.abs(out._taylor_coeffs())
        if np.max(coeffs[: out.j], initial=0.0) > VANISH_RTOL * np.max(coeffs):
            raise ParameterError(f"quotpow child does not vanish to order {int(j)} at 0")
        return out
    if kind in ("sum", "product"):
        children = [expr_from_json(ch) for ch in payload["children"]]
        out = children[0]
        for ch in children[1:]:
            out = out + ch if kind == "sum" else out * ch
        return out
    raise ParameterError(f"unknown expression node type {kind!r}")
