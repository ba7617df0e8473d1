"""Exact symbolic test functions for the operator calculus.

The working class is finite sums of coeff * x^m * exp(alpha x^2 + beta x)
* j_kappa(c x), closed under differentiation, reflection, multiplication
by x, and the Dunkl and linear canonical Dunkl operators. The reflection
part of the Dunkl operator, (f(x) - f(-x))/x, is computed termwise when
every beta vanishes (the parity split is then exact, with no division at
all); otherwise it becomes an explicit quotient node whose value near 0
comes from the Taylor limit rather than a cancelling division.
"""

import json

import numpy as np

from .errors import ParameterError, ResourceBudgetError
from .specfun import bessel_j_grid, kval, matval

__all__ = [
    "SymExpr",
    "PolySum",
    "QuotPow",
    "NodeSum",
    "NodeProd",
    "Term",
    "constant",
    "monomial",
    "gaussian",
    "bessel_factor",
    "dunkl_kernel_expr",
    "lcdt_kernel_expr",
    "evaluate",
    "differentiate",
    "reflect",
    "mul_x",
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


class Term:
    """coeff * x^m * exp(alpha x^2 + beta x) * [j_kappa(c x)]."""

    __slots__ = ("coeff", "m", "alpha", "beta", "kappa", "c")

    def __init__(self, coeff, m=0, alpha=0j, beta=0j, kappa=None, c=None):
        if m < 0:
            raise ParameterError("monomial degree must be nonnegative")
        alpha = complex(alpha)
        if alpha.real > 1e-12:
            raise ParameterError("Re(alpha) must be <= 0")
        if kappa is not None:
            if kappa < -0.5:
                raise ParameterError("bessel order must be >= -1/2")
            c = abs(float(c))
            if c == 0.0:
                kappa = c = None  # j_kappa(0) = 1
        self.coeff = complex(coeff)
        self.m = int(m)
        self.alpha = alpha
        self.beta = complex(beta)
        self.kappa = None if kappa is None else float(kappa)
        self.c = c

    def key(self):
        return (self.m, self.alpha, self.beta, self.kappa, self.c)

    def scaled(self, s):
        return Term(self.coeff * s, self.m, self.alpha, self.beta, self.kappa, self.c)

    def reflected(self):
        sign = -1.0 if self.m % 2 else 1.0
        return Term(self.coeff * sign, self.m, self.alpha, -self.beta, self.kappa, self.c)

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
    """Base expression node."""

    def evaluate_array(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def diff(self) -> "SymExpr":
        raise NotImplementedError

    def reflected(self) -> "SymExpr":
        raise NotImplementedError

    def scaled(self, s) -> "SymExpr":
        raise NotImplementedError

    def mul_x(self) -> "SymExpr":
        raise NotImplementedError

    def size(self) -> int:
        raise NotImplementedError

    def __add__(self, other):
        return NodeSum.of(self, other)

    def __sub__(self, other):
        return NodeSum.of(self, other.scaled(-1.0))

    def __neg__(self):
        return self.scaled(-1.0)

    def __mul__(self, other):
        if isinstance(other, SymExpr):
            return NodeProd.of(self, other)
        return self.scaled(other)

    __rmul__ = __mul__


class PolySum(SymExpr):
    """Canonical sum of Terms, merged by basis key."""

    __slots__ = ("terms",)

    def __init__(self, terms):
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

    def evaluate_array(self, x):
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

    def diff(self):
        out = []
        for t in self.terms:
            out.extend(t.diff_terms())
        return PolySum(out)

    def reflected(self):
        return PolySum([t.reflected() for t in self.terms])

    def scaled(self, s):
        return PolySum([t.scaled(s) for t in self.terms])

    def mul_x(self):
        return PolySum([Term(t.coeff, t.m + 1, t.alpha, t.beta, t.kappa, t.c) for t in self.terms])

    def beta_free(self):
        return all(t.beta == 0 for t in self.terms)

    def size(self):
        return len(self.terms)


class QuotPow(SymExpr):
    """child(x) / x^j with the value near 0 taken as the Taylor limit.

    Constructors only build these for children vanishing to order j at 0,
    so the quotient extends continuously.
    """

    __slots__ = ("child", "j", "_taylor")

    def __init__(self, child, j):
        if j < 1:
            raise ParameterError("quotient power must be >= 1")
        self.child = child
        self.j = int(j)
        self._taylor = None

    def _taylor_coeffs(self):
        if self._taylor is None:
            coeffs = []
            e = self.child
            fact = 1.0
            zero = np.zeros(1)
            for i in range(self.j + TAYLOR_EXTRA + 1):
                if i:
                    fact *= i
                coeffs.append(complex(e.evaluate_array(zero)[0]) / fact)
                e = e.diff()
            self._taylor = coeffs
        return self._taylor

    def evaluate_array(self, x):
        out = np.empty(x.shape, dtype=np.complex128)
        near = np.abs(x) < TAYLOR_SWITCH
        far = ~near
        if far.any():
            xf = x[far]
            out[far] = self.child.evaluate_array(xf) / xf**self.j
        if near.any():
            xn = x[near]
            acc = np.zeros(xn.shape, dtype=np.complex128)
            coeffs = self._taylor_coeffs()
            for i in range(len(coeffs) - 1, self.j - 1, -1):
                acc = acc * xn + coeffs[i]
            out[near] = acc
        return out

    def diff(self):
        return NodeSum.of(QuotPow(self.child.diff(), self.j), QuotPow(self.child.scaled(-self.j), self.j + 1))

    def reflected(self):
        sign = -1.0 if self.j % 2 else 1.0
        return QuotPow(self.child.reflected().scaled(sign), self.j)

    def scaled(self, s):
        return QuotPow(self.child.scaled(s), self.j)

    def mul_x(self):
        if self.j == 1:
            return self.child
        return QuotPow(self.child, self.j - 1)

    def size(self):
        return self.child.size() + 1


class NodeSum(SymExpr):
    __slots__ = ("children",)

    def __init__(self, children):
        flat = []
        poly = []
        for ch in children:
            if isinstance(ch, NodeSum):
                for sub in ch.children:
                    (poly if isinstance(sub, PolySum) else flat).append(sub)
            elif isinstance(ch, PolySum):
                poly.append(ch)
            else:
                flat.append(ch)
        if poly:
            merged = PolySum([t for p in poly for t in p.terms])
            flat.insert(0, merged)
        self.children = tuple(flat)

    @staticmethod
    def of(*children):
        node = NodeSum(children)
        if len(node.children) == 1:
            return node.children[0]
        return node

    def evaluate_array(self, x):
        out = np.zeros(x.shape, dtype=np.complex128)
        for ch in self.children:
            out += ch.evaluate_array(x)
        return out

    def diff(self):
        return NodeSum.of(*[ch.diff() for ch in self.children])

    def reflected(self):
        return NodeSum.of(*[ch.reflected() for ch in self.children])

    def scaled(self, s):
        return NodeSum.of(*[ch.scaled(s) for ch in self.children])

    def mul_x(self):
        return NodeSum.of(*[ch.mul_x() for ch in self.children])

    def size(self):
        return sum(ch.size() for ch in self.children)


def _mul_terms(a: Term, b: Term) -> Term:
    if a.kappa is not None and b.kappa is not None:
        raise ParameterError("products of two Bessel factors are outside the supported class")
    kappa, c = (a.kappa, a.c) if a.kappa is not None else (b.kappa, b.c)
    return Term(a.coeff * b.coeff, a.m + b.m, a.alpha + b.alpha, a.beta + b.beta, kappa, c)


class NodeProd(SymExpr):
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = tuple(children)

    @staticmethod
    def of(a, b):
        if isinstance(a, PolySum) and isinstance(b, PolySum):
            return PolySum([_mul_terms(ta, tb) for ta in a.terms for tb in b.terms])
        return NodeProd([a, b])

    def evaluate_array(self, x):
        out = np.ones(x.shape, dtype=np.complex128)
        for ch in self.children:
            out *= ch.evaluate_array(x)
        return out

    def diff(self):
        a, b = self.children
        return NodeSum.of(NodeProd.of(a.diff(), b), NodeProd.of(a, b.diff()))

    def reflected(self):
        return NodeProd([ch.reflected() for ch in self.children])

    def scaled(self, s):
        a, b = self.children
        return NodeProd([a.scaled(s), b])

    def mul_x(self):
        a, b = self.children
        return NodeProd([a.mul_x(), b])

    def size(self):
        return sum(ch.size() for ch in self.children)


# ---------------------------------------------------------------------------
# constructors

def constant(c) -> PolySum:
    return PolySum([Term(c)])


def monomial(m: int, coeff=1.0) -> PolySum:
    return PolySum([Term(coeff, m=m)])


def gaussian(alpha, beta=0j, coeff=1.0, m=0) -> PolySum:
    """coeff * x^m * exp(alpha x^2 + beta x)."""
    return PolySum([Term(coeff, m=m, alpha=alpha, beta=beta)])


def bessel_factor(kappa: float, c: float, coeff=1.0, m=0, alpha=0j) -> PolySum:
    """coeff * x^m * exp(alpha x^2) * j_kappa(c x)."""
    return PolySum([Term(coeff, m=m, alpha=alpha, kappa=kappa, c=c)])


def dunkl_kernel_expr(k, lam: float) -> PolySum:
    """E_k(i lam, .) as an exact tree in x."""
    kk = kval(k)
    return PolySum(
        [
            Term(1.0, kappa=kk, c=lam),
            Term(1j * lam / (2.0 * (kk + 1.0)), m=1, kappa=kk + 1.0, c=lam),
        ]
    )


def lcdt_kernel_expr(k, M, lam: float) -> PolySum:
    """E^M_k(lam, .) as an exact tree in x (lam fixed)."""
    kk = kval(k)
    mm = matval(M)
    lam_chirp = complex(np.exp(0.5j * (mm.d / mm.b) * lam * lam))
    alpha = 0.5j * (mm.a / mm.b)
    base = dunkl_kernel_expr(kk, -lam / mm.b)
    return PolySum(
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


def differentiate(e: SymExpr) -> SymExpr:
    return e.diff()


def reflect(e: SymExpr) -> SymExpr:
    return e.reflected()


def mul_x(e: SymExpr) -> SymExpr:
    return e.mul_x()


def odd_quotient(e: SymExpr) -> SymExpr:
    """(e(x) - e(-x)) / x with the x = 0 value equal to 2 e'(0)."""
    if isinstance(e, PolySum) and e.beta_free():
        # parity split: even-degree terms cancel exactly, odd ones halve a power
        out = [
            Term(2.0 * t.coeff, t.m - 1, t.alpha, t.beta, t.kappa, t.c)
            for t in e.terms
            if t.m % 2 == 1
        ]
        return PolySum(out)
    return QuotPow(NodeSum.of(e, e.reflected().scaled(-1.0)), 1)


def apply_dunkl(k, e: SymExpr) -> SymExpr:
    """Dunkl operator: e' + (2k+1)/2 * (e(x) - e(-x))/x."""
    kk = kval(k)
    de = e.diff()
    coeff = 0.5 * (2.0 * kk + 1.0)
    if coeff == 0.0:
        return de
    return NodeSum.of(de, odd_quotient(e).scaled(coeff))


def apply_lcd(k, M, e: SymExpr) -> SymExpr:
    """Linear canonical Dunkl operator for matrix M: Dunkl part minus i(d/b) x e."""
    mm = matval(M)
    return NodeSum.of(apply_dunkl(k, e), e.mul_x().scaled(-1j * mm.d / mm.b))


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
        if out.size() > TERM_BUDGET:
            raise ResourceBudgetError(
                f"expression grew to {out.size()} terms after {i + 1} applications "
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
    if isinstance(e, PolySum):
        terms = []
        for t in e.terms:
            entry = {"coeff": _c2j(t.coeff), "m": t.m, "alpha": _c2j(t.alpha), "beta": _c2j(t.beta)}
            if t.kappa is not None:
                entry["bessel"] = {"kappa": t.kappa, "c": t.c}
            terms.append(entry)
        return {"type": "sum_of_terms", "terms": terms}
    if isinstance(e, QuotPow):
        return {"type": "quotpow", "j": e.j, "child": expr_to_json(e.child)}
    if isinstance(e, NodeSum):
        return {"type": "sum", "children": [expr_to_json(ch) for ch in e.children]}
    if isinstance(e, NodeProd):
        return {"type": "product", "children": [expr_to_json(ch) for ch in e.children]}
    raise ParameterError(f"cannot serialize {type(e).__name__}")


def expr_from_json(payload) -> SymExpr:
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
        return PolySum(terms)
    if kind == "quotpow":
        return QuotPow(expr_from_json(payload["child"]), payload["j"])
    if kind == "sum":
        return NodeSum.of(*[expr_from_json(ch) for ch in payload["children"]])
    if kind == "product":
        children = [expr_from_json(ch) for ch in payload["children"]]
        out = children[0]
        for ch in children[1:]:
            out = NodeProd.of(out, ch)
        return out
    raise ParameterError(f"unknown expression node type {kind!r}")
