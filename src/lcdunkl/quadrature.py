"""Quadrature against the Dunkl measure |x|^(2k+1) dx / (2^(k+1) Gamma(k+1)).

Rules are composite Gauss panels on a symmetric interval [-X, X] with
the Dunkl density folded into the weights. Zero is always a panel edge:
the two panels there are Gauss-Jacobi, exact for the power |x|^(2k+1),
and the others Gauss-Legendre, on which the density is smooth.

L^p norms are reduced one way, by _lp_norms: lp_norm is its one-block
case, and transform._lcdt_lp_norms feeds it folded blocks.

Records are written one way: payload() is JSON data that from_payload
reads back bit for bit, and _csv_text writes every CSV file of the
package (spectra, sampled functions, norm sequences), numbers as repr.
"""

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ParameterError, ShapeMismatchError
from .specfun import kval, regularized_gamma

__all__ = [
    "QuadratureRule",
    "SampledFunction",
    "build_rule",
    "build_rule_from_edges",
    "gaussian_mass_closed_form",
    "lp_norm",
    "inner_product",
    "integrate",
]

CALIBRATION_RTOL = 1e-10


def gaussian_mass_closed_form(k: float, X: float) -> float:
    """integral of exp(-x^2) over [-X, X] against the Dunkl measure.

    Equals gamma_lower(k+1, X^2) / (2^(k+1) Gamma(k+1)) by the
    substitution u = x^2.
    """
    return regularized_gamma(k + 1.0, X * X)[0] / 2.0 ** (k + 1.0)


def _fields_equal(a, b) -> bool:
    """a == b for dataclasses of one type, field by field, array fields by value."""
    return type(a) is type(b) and all(
        np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v
        for u, v in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a)))


def _csv_text(header: str, *columns) -> str:
    """A header line, then one line per row of the columns, each entry the repr of its tolist() value."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return "".join([header + "\n", *(",".join(map(repr, row)) + "\n" for row in rows)])


# eq=False: the value __eq__ below leaves __hash__ None, where the generated hash would hash the arrays
@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and Dunkl-weighted quadrature weights on [-X, X]."""

    nodes: np.ndarray
    weights: np.ndarray
    X: float
    k: float

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ParameterError("nodes and weights must be matching 1-d arrays")
        if not np.all(np.diff(nodes) > 0):
            raise ParameterError("nodes must be strictly increasing")
        if not np.allclose(nodes, -nodes[::-1], rtol=0, atol=1e-13 * max(1.0, self.X)):
            raise ParameterError("node set must be symmetric under reflection")
        if not np.all(np.isfinite(weights)):
            raise ParameterError("weights must be finite (|x|^(2k+1) overflows a double at large k and |x|)")
        if np.any(weights < 0):
            raise ParameterError("weights must be nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        got = float(np.sum(weights * np.exp(-nodes * nodes)))
        want = gaussian_mass_closed_form(self.k, self.X)
        if not abs(got - want) <= CALIBRATION_RTOL * abs(want):
            raise ParameterError(
                f"rule fails Gaussian calibration: got {got!r}, closed form {want!r}; "
                "increase panels or nodes_per_panel"
            )

    __eq__ = _fields_equal

    def __len__(self):
        return self.nodes.shape[0]

    def payload(self) -> dict:
        """The rule as JSON data, which from_payload reads back bit for bit."""
        return {"k": self.k, "X": self.X, "nodes": self.nodes.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_payload(cls, data) -> "QuadratureRule":
        return cls(np.array(data["nodes"], dtype=np.float64), np.array(data["weights"], dtype=np.float64),
                   X=data["X"], k=data["k"])

    @cached_property
    def fold(self):
        """Unique |nodes|, and per class the index of its node >= 0 and of its node < 0 (len(self) if none)."""
        xa, cls = np.unique(np.abs(self.nodes), return_inverse=True)
        sides = np.full((2, xa.size), len(self))
        sides[(self.nodes < 0).astype(np.intp), cls] = np.arange(len(self))
        xa.setflags(write=False)
        sides.setflags(write=False)
        return xa, sides[0], sides[1]


def _dunkl_density(k: float, x: np.ndarray) -> np.ndarray:
    norm = 2.0 ** (k + 1.0) * math.gamma(k + 1.0)
    with np.errstate(over="ignore"):  # QuadratureRule refuses the infinite weights
        return np.abs(x) ** (2.0 * k + 1.0) / norm


def _gauss_jacobi(n: int, beta: float):
    """Nodes on [-1, 1] and mass fractions of the n-point Gauss rule for (1+t)^beta (Golub-Welsch)."""
    # numpy's eigh: scipy's roots_jacobi would import scipy.linalg, ~80 ms in every fresh process
    j = np.arange(1.0, n)
    s = 2.0 * j + beta
    diag = np.append(beta / (beta + 2.0), beta * beta / (s * (s + 2.0)))
    off = 2.0 * j * (j + beta) / (s * np.sqrt(s * s - 1.0))
    t, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return t, v[0] ** 2


def build_rule_from_edges(k, edges, nodes_per_panel: int) -> QuadratureRule:
    """Composite Gauss rule on explicit symmetric panel edges: Jacobi at 0, Legendre elsewhere."""
    kk = kval(k)
    edges = np.asarray(sorted(float(e) for e in edges), dtype=np.float64)
    if edges.size < 3 or not np.allclose(edges, -edges[::-1], rtol=0, atol=1e-13 * edges[-1]):
        raise ParameterError("panel edges must be symmetric about 0 and include 0")
    if 0.0 not in edges:
        raise ParameterError("panel edges must include 0")
    if nodes_per_panel < 2:
        raise ParameterError("nodes_per_panel must be >= 2")
    base_x, base_w = leggauss(nodes_per_panel)
    jac_t, jac_w = _gauss_jacobi(nodes_per_panel, 2.0 * kk + 1.0)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        if lo == 0.0:
            # x = half (1+t) carries the density as (1+t)^(2k+1); the panel's mass is hi^(2k+2) / ((2k+2) norm)
            nodes.append(half * (1.0 + jac_t))
            weights.append(jac_w * (hi * _dunkl_density(kk, hi) / (2.0 * kk + 2.0)))
            continue
        x = mid + half * base_x
        nodes.append(x)
        weights.append(half * base_w * _dunkl_density(kk, x))
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    # symmetrize exactly: the negative half is the mirror of the positive half
    m = nodes.size // 2
    nodes = np.concatenate([-nodes[m:][::-1], nodes[m:]])
    weights = np.concatenate([weights[m:][::-1], weights[m:]])
    return QuadratureRule(nodes=nodes, weights=weights, X=float(edges[-1]), k=kk)


def build_rule(k, X: float, panels: int, nodes_per_panel: int) -> QuadratureRule:
    """Build a Dunkl-measure quadrature rule on [-X, X].

    Parameters
    ----------
    k : float or DunklParameter
        Multiplicity parameter of the measure, k >= -1/2.
    X : float
        Truncation radius, > 0.
    panels : int
        Number of uniform Gauss-Legendre panels; must be even and >= 2
        so that 0 is a panel edge and the node set is symmetric.
    nodes_per_panel : int
        Gauss-Legendre points per panel, >= 2.

    Returns
    -------
    QuadratureRule
        Validated rule; construction fails if the rule cannot integrate
        a Gaussian against the measure to 1e-10 relative.
    """
    if X <= 0:
        raise ParameterError("X must be positive")
    if panels < 2:
        raise ParameterError("panels must be >= 2")
    if panels % 2:
        raise ParameterError("panels must be even so that 0 is a panel edge")
    edges = np.linspace(-X, X, panels + 1)
    edges[panels // 2] = 0.0
    return build_rule_from_edges(k, edges, nodes_per_panel)


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples of a function at the nodes of a quadrature rule."""

    rule: QuadratureRule
    values: np.ndarray
    label: str = field(default="")

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if values.shape != self.rule.nodes.shape:
            raise ShapeMismatchError(
                f"values length {values.shape} does not match rule node count {self.rule.nodes.shape}"
            )
        if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
            raise ParameterError("sampled values must be finite")
        object.__setattr__(self, "values", values)

    __eq__ = _fields_equal

    def to_csv_text(self) -> str:
        return _csv_text("node,re,im", self.rule.nodes, self.values.real, self.values.imag)

    def payload(self) -> dict:
        """The samples as JSON data, which from_payload reads back bit for bit."""
        return {"label": self.label, "rule": self.rule.payload(),
                "re": self.values.real.tolist(), "im": self.values.imag.tolist()}

    @classmethod
    def from_payload(cls, data) -> "SampledFunction":
        values = np.array(data["re"], dtype=np.float64) + 1j * np.array(data["im"], dtype=np.float64)
        return cls(QuadratureRule.from_payload(data["rule"]), values, label=data.get("label", ""))

    def to_json_text(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    @classmethod
    def from_json_text(cls, text: str) -> "SampledFunction":
        return cls.from_payload(json.loads(text))


def integrate(f: SampledFunction) -> complex:
    """Quadrature integral of f against the Dunkl measure."""
    return complex(np.sum(f.rule.weights * f.values))


def _lp_norms(p: float, blocks, ncols: int) -> np.ndarray:
    """(sum_i w_i m_i^p)^(1/p) down ncols columns over (weights w, moduli m) blocks, reduced as each lands.

    p = inf is max m. At 1 < p < inf each column keeps a running scale, its largest
    modulus so far (m is overwritten), so that large p neither underflows nor overflows.
    """
    if not p >= 1:
        raise ParameterError(f"p must satisfy p >= 1 or p = inf, got {p}")
    norms, top = np.zeros(ncols), np.zeros(ncols)
    for w, mags in blocks:
        if p == math.inf:
            np.maximum(norms, np.max(mags, axis=0), out=norms)
        elif p == 1.0:
            norms += w @ mags
        else:
            new = np.maximum(top, np.max(mags, axis=0))
            live = new > 0
            norms[live] *= (top[live] / new[live]) ** p
            np.divide(mags, new, out=mags, where=live)
            norms += w @ mags**p
            top = new
    return top * norms ** (1.0 / p) if 1.0 < p < math.inf else norms


def lp_norm(f: SampledFunction, p: float) -> float:
    """L^p norm against the Dunkl measure; p = inf is the grid maximum."""
    return float(_lp_norms(p, [(f.rule.weights, np.abs(f.values)[:, None])], 1)[0])


def inner_product(f: SampledFunction, g: SampledFunction) -> complex:
    """<f, g> = sum w_i f_i conj(g_i); both on the same rule."""
    if f.rule != g.rule:
        raise ShapeMismatchError("inner product requires both functions on the same rule")
    return complex(np.sum(f.rule.weights * f.values * np.conj(g.values)))
