"""Built-in test corpus and grid profiles.

Two kinds of member: Schwartz-class symbolic expressions (Gaussians and
friends, exact under the operator calculus) and compact-spectrum
functions, smooth bumps on the frequency side (``bump_spectrum``, closed
form, no kernel table) realized on the physical side by an inverse
transform (``realize_bump``). Estimator ground truth for a bump is its support.

Grid sizing notes: the physical realization of a bump decays only like
exp(-c sqrt(|x|)), so bump profiles use a wide x interval; the frequency
rule then has to resolve oscillation at rate X/|b| inside the bump
support, which drives its panel count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .quadrature import QuadratureRule, build_rule, build_rule_from_edges
from .specfun import U_MAX, CanonicalMatrix, kval, matval
from .symfun import SymExpr, gaussian
from .transform import Spectrum, lcdt_inverse

__all__ = [
    "GridProfile",
    "gauss_profile",
    "bump_profile",
    "bump_spectrum_values",
    "bump_spectrum",
    "realize_bump",
    "SymbolicMember",
    "BumpMember",
    "symbolic_members",
    "standard_corpus",
    "SWEEP_K",
    "SWEEP_M",
]

SWEEP_K = (-0.5, 0.0, 0.5, 2.0)
SWEEP_M = (
    CanonicalMatrix(0.0, 1.0, -1.0, 0.0),
    CanonicalMatrix(1.0, 1.0, 0.0, 1.0),
    CanonicalMatrix.rotation(math.pi / 3),
)
# bump profiles: the radius of the x rule, and the Gauss nodes per panel of the x and lambda rules
_BUMP_X, _BUMP_X_NODES, _BUMP_L_NODES = 320.0, 12, 12


@dataclass(frozen=True)
class GridProfile:
    x_rule: QuadratureRule
    lam_rule: QuadratureRule


def gauss_profile(k, X=10.0, x_panels=40, x_nodes=16, L=14.0, l_panels=48, l_nodes=14) -> GridProfile:
    kk = kval(k)
    return GridProfile(
        x_rule=build_rule(kk, X, x_panels, x_nodes),
        lam_rule=build_rule(kk, L, l_panels, l_nodes),
    )


def _bump_lambda_edges(intervals, extent, per_unit):
    edges = [0.0, extent]
    for lo, hi in intervals:
        splits = max(4, int(math.ceil((hi - lo) * per_unit)))
        for e in np.linspace(lo, hi, splits + 1):
            edges.append(abs(float(e)))
    # dedupe: linspace points mirrored across 0 land within float noise
    edges = sorted(set(edges))
    kept = [edges[0]]
    for e in edges[1:]:
        if e - kept[-1] > 1e-9 * max(1.0, extent):
            kept.append(e)
    pos = np.array(kept)
    return np.concatenate([-pos[::-1], pos[1:]])


def _two_zone_edges(X_inner, w_inner, X, w_outer):
    inner = np.arange(0.0, X_inner + 0.5 * w_inner, w_inner)
    n_out = max(1, int(math.ceil((X - inner[-1]) / w_outer)))
    outer = np.linspace(inner[-1], X, n_out + 1)[1:]
    pos = np.concatenate([inner, outer])
    return np.concatenate([-pos[::-1], pos[1:]])


def bump_profile(k, intervals, b=1.0) -> GridProfile:
    """Grids sized for compact-spectrum members supported on `intervals`, on [-_BUMP_X, _BUMP_X]."""
    kk, X = kval(k), _BUMP_X
    maxedge = max(abs(e) for pair in intervals for e in pair)
    # keep the grid edge close to the support: residual spectral noise at
    # the edge enters n-th operator norms like (extent/maxedge)^n, so a
    # wide margin would poison long norm sequences
    extent = 1.2 * maxedge
    # checked before the panels are laid out: their count grows like extent / |b|
    if not X * extent <= U_MAX * abs(b):
        raise RangeError(f"kernel argument X * 1.2 max|edge| / |b| = {X * extent / abs(b):.6g} beyond {U_MAX:g}")
    # frequency rule: resolve e^{i lam x / b} at |x| <= X inside the support
    per_unit = max(8.0, 0.75 * X / abs(b) / 12.0)
    lam_rule = build_rule_from_edges(kk, _bump_lambda_edges(intervals, extent, per_unit), _BUMP_L_NODES)
    # physical rule: dense panels near 0 (unit-scale calibration), far
    # panels sized by the oscillation rate <= extent / |b|
    w_outer = min(4.0, 0.55 * _BUMP_X_NODES / (extent / abs(b)))
    x_rule = build_rule_from_edges(kk, _two_zone_edges(8.0, 0.5, X, w_outer), _BUMP_X_NODES)
    return GridProfile(x_rule=x_rule, lam_rule=lam_rule)


def bump_spectrum_values(lam: np.ndarray, intervals) -> np.ndarray:
    """Sum of smooth bumps exp(-1/(1-t^2)) rescaled to each interval."""
    out = np.zeros(lam.shape, dtype=np.complex128)
    for lo, hi in intervals:
        t = (2.0 * lam - (lo + hi)) / (hi - lo)
        inside = np.abs(t) < 1.0
        vals = np.zeros(lam.shape)
        ts = t[inside]
        vals[inside] = np.exp(-1.0 / (1.0 - ts * ts))
        out += vals
    return out


def bump_spectrum(k, M, intervals, profile: GridProfile, label="bump") -> Spectrum:
    """Spectrally defined member on the frequency rule of profile, in closed form."""
    vals = bump_spectrum_values(profile.lam_rule.nodes, intervals)
    return Spectrum(profile.lam_rule, vals, kval(k), matval(M), label=label)


def realize_bump(k, M, intervals, profile: GridProfile, label="bump"):
    """Spectrally defined member: returns (physical samples, its spectrum)."""
    spec = bump_spectrum(k, M, intervals, profile, label=label)
    return lcdt_inverse(spec, profile.x_rule), spec


@dataclass(frozen=True)
class SymbolicMember:
    name: str
    expr: SymExpr


@dataclass(frozen=True)
class BumpMember:
    name: str
    intervals: tuple


def symbolic_members():
    return [
        SymbolicMember("gaussian", gaussian(-0.5)),
        SymbolicMember("x_gaussian", gaussian(-1.0, m=1)),
        SymbolicMember("x2_gaussian", gaussian(-1.0, m=2)),
        SymbolicMember("chirped_gaussian", gaussian(-1.0 + 0.25j)),
    ]


def standard_corpus():
    """The six-member corpus: four symbolic, two spectral bumps."""
    return symbolic_members(), [
        BumpMember("bump_1_2", ((1.0, 2.0),)),
        BumpMember("bump_sym_05_15", ((-1.5, -0.5), (0.5, 1.5))),
    ]
