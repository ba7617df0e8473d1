"""Quadrature against the Dunkl measure |x|^(2k+1) dx / (2^(k+1) Gamma(k+1)).

Rules are composite Gauss panels on a symmetric interval [-X, X] with
the Dunkl density folded into the weights. Zero is always a panel edge:
the two panels there are Gauss-Jacobi, exact for the power |x|^(2k+1),
and the others Gauss-Legendre, on which the density is smooth.
"""

import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainc

from .errors import ParameterError, ShapeMismatchError
from .specfun import kval

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
    return float(gammainc(k + 1.0, X * X)) / 2.0 ** (k + 1.0)


@dataclass(frozen=True)
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

    def __eq__(self, other):
        return (
            isinstance(other, QuadratureRule)
            and self.k == other.k
            and self.X == other.X
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )

    def __len__(self):
        return self.nodes.shape[0]

    @cached_property
    def fold(self):
        """Sorted unique |nodes| and each node's class in it, computed once per rule (read-only)."""
        folded = np.unique(np.abs(self.nodes), return_inverse=True)
        for a in folded:
            a.setflags(write=False)
        return folded


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


@dataclass(frozen=True)
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

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("node,re,im\n")
        for x, v in zip(self.rule.nodes, self.values):
            buf.write(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}\n")
        return buf.getvalue()

    def to_json_text(self) -> str:
        payload = {
            "label": self.label,
            "rule": {
                "k": self.rule.k,
                "X": self.rule.X,
                "nodes": self.rule.nodes.tolist(),
                "weights": self.rule.weights.tolist(),
            },
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json_text(cls, text: str) -> "SampledFunction":
        payload = json.loads(text)
        rule = QuadratureRule(
            nodes=np.array(payload["rule"]["nodes"], dtype=np.float64),
            weights=np.array(payload["rule"]["weights"], dtype=np.float64),
            X=payload["rule"]["X"],
            k=payload["rule"]["k"],
        )
        values = np.array(payload["re"], dtype=np.float64) + 1j * np.array(payload["im"])
        return cls(rule=rule, values=values, label=payload.get("label", ""))


def integrate(f: SampledFunction) -> complex:
    """Quadrature integral of f against the Dunkl measure."""
    return complex(np.sum(f.rule.weights * f.values))


def lp_norm(f: SampledFunction, p: float) -> float:
    """L^p norm against the Dunkl measure; p = inf is the grid maximum."""
    if p == math.inf:
        return float(np.max(np.abs(f.values))) if f.values.size else 0.0
    if not p >= 1:
        raise ParameterError(f"p must satisfy p >= 1 or p = inf, got {p}")
    return float(np.sum(f.rule.weights * np.abs(f.values) ** p) ** (1.0 / p))


def inner_product(f: SampledFunction, g: SampledFunction) -> complex:
    """<f, g> = sum w_i f_i conj(g_i); both on the same rule."""
    if f.rule != g.rule:
        raise ShapeMismatchError("inner product requires both functions on the same rule")
    return complex(np.sum(f.rule.weights * f.values * np.conj(g.values)))
