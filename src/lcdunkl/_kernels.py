"""Hot evaluation loops for the normalized Bessel function j_nu.

Two interchangeable implementations live here: numba-jitted element
loops (default) and vectorized numpy fallbacks. Select with the
LCDUNKL_BACKEND environment variable ("numba" or "numpy"); numpy is
also used automatically when numba is not importable.

Every evaluator uses compensated (Kahan) accumulation: the transform
matrices built on top of these loops need absolute accuracy at the
unit kernel scale even where j itself is many orders smaller.
"""

import math
import os

import numpy as np

_env = os.environ.get("LCDUNKL_BACKEND", "").strip().lower()
if not _env and os.environ.get("LCDUNKL_DISABLE_NUMBA", "").strip().lower() in ("1", "true", "yes"):
    _env = "numpy"

try:
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap

    prange = range

if _env == "numba" and not HAVE_NUMBA:
    raise ImportError("LCDUNKL_BACKEND=numba requested but numba is not importable")

_ACTIVE = "numpy" if (_env == "numpy" or not HAVE_NUMBA) else "numba"

# Series is used where it suffers no cancellation; the Poisson-integral
# rule handles the mid range, the large-argument expansion the far range.
SERIES_CUT = 7.5
BAND_CUT = 18.0
HANKEL_NU_MAX = 3.2
BAND_NODES = 64
U_MAX = 2000.0


def active_backend() -> str:
    return _ACTIVE


def set_backend(name: str) -> None:
    """Switch kernel backend at runtime ("numba" or "numpy")."""
    global _ACTIVE
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    _ACTIVE = name


def poisson_node_count(umax: float) -> int:
    """Gauss-Jacobi size resolving cos(u t) up to |u| = umax."""
    return max(BAND_NODES, int(math.ceil(0.5 * umax + 10.0 * umax ** (1.0 / 3.0) + 28.0)))


# ---------------------------------------------------------------------------
# scalar pieces (jitted; also reused by the numpy fallback where scalar)

@njit(cache=True)
def _series_scalar(nu, u):
    z = -0.25 * u * u
    term = 1.0
    s = 1.0
    c = 0.0
    for n in range(1, 500):
        term *= z / (n * (nu + n))
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        if abs(term) < 1e-18 * (1.0 + abs(s)):
            break
    return s


@njit(cache=True)
def _hankel_scalar(nu, u):
    mu = 4.0 * nu * nu
    p = 1.0
    q = 0.0
    term = 1.0
    for m in range(1, 80):
        new = term * (mu - (2 * m - 1) ** 2) / (8.0 * m * u)
        if abs(new) >= abs(term) and m > 2:
            break
        term = new
        k4 = m % 4
        if k4 == 1:
            q += term
        elif k4 == 2:
            p -= term
        elif k4 == 3:
            q -= term
        else:
            p += term
        if abs(term) < 1e-19:
            break
    w = u - (0.5 * nu + 0.25) * math.pi
    jn = math.sqrt(2.0 / (math.pi * u)) * (p * math.cos(w) - q * math.sin(w))
    return math.exp(nu * math.log(2.0) + math.lgamma(nu + 1.0) - nu * math.log(u)) * jn


@njit(cache=True)
def _poisson_scalar(u, t, w):
    s = 0.0
    c = 0.0
    for j in range(t.shape[0]):
        y = w[j] * math.cos(u * t[j]) - c
        tt = s + y
        c = (tt - s) - y
        s = tt
    return s


# ---------------------------------------------------------------------------
# numba array evaluators

@njit(cache=True, parallel=True)
def _series_arr_nb(nu, u, out):
    for i in prange(u.shape[0]):
        out[i] = _series_scalar(nu, abs(u[i]))


@njit(cache=True, parallel=True)
def _hankel_arr_nb(nu, u, out):
    for i in prange(u.shape[0]):
        out[i] = _hankel_scalar(nu, abs(u[i]))


@njit(cache=True, parallel=True)
def _poisson_arr_nb(u, t, w, out):
    for i in prange(u.shape[0]):
        out[i] = _poisson_scalar(abs(u[i]), t, w)


# ---------------------------------------------------------------------------
# numpy array evaluators (vectorized over elements, looped over terms/nodes)

def _series_arr_np(nu, u, out):
    ua = np.abs(u)
    z = -0.25 * ua * ua
    term = np.ones_like(ua)
    s = np.ones_like(ua)
    c = np.zeros_like(ua)
    for n in range(1, 500):
        term = term * (z / (n * (nu + n)))
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        if np.max(np.abs(term)) < 1e-18 * (1.0 + np.max(np.abs(s))):
            break
    out[:] = s


def _hankel_arr_np(nu, u, out):
    ua = np.abs(u)
    mu = 4.0 * nu * nu
    p = np.ones_like(ua)
    q = np.zeros_like(ua)
    term = np.ones_like(ua)
    active = np.ones(ua.shape, dtype=bool)
    for m in range(1, 80):
        new = term * ((mu - (2 * m - 1) ** 2) / (8.0 * m)) / ua
        if m > 2:
            active &= np.abs(new) < np.abs(term)
        if not active.any():
            break
        term = np.where(active, new, 0.0)
        k4 = m % 4
        if k4 == 1:
            q += term
        elif k4 == 2:
            p -= term
        elif k4 == 3:
            q -= term
        else:
            p += term
        if np.max(np.abs(term)) < 1e-19:
            break
    w = ua - (0.5 * nu + 0.25) * math.pi
    jn = np.sqrt(2.0 / (math.pi * ua)) * (p * np.cos(w) - q * np.sin(w))
    scale = math.exp(nu * math.log(2.0) + math.lgamma(nu + 1.0))
    out[:] = scale * np.exp(-nu * np.log(ua)) * jn


def _poisson_arr_np(u, t, w, out):
    ua = np.abs(u)
    s = np.zeros_like(ua)
    c = np.zeros_like(ua)
    for j in range(t.shape[0]):
        y = w[j] * np.cos(ua * t[j]) - c
        tt = s + y
        c = (tt - s) - y
        s = tt
    out[:] = s


def series_eval(nu, u, out):
    if _ACTIVE == "numba":
        _series_arr_nb(nu, u, out)
    else:
        _series_arr_np(nu, u, out)


def hankel_eval(nu, u, out):
    if _ACTIVE == "numba":
        _hankel_arr_nb(nu, u, out)
    else:
        _hankel_arr_np(nu, u, out)


def poisson_eval(u, t, w, out):
    if _ACTIVE == "numba":
        _poisson_arr_nb(u, t, w, out)
    else:
        _poisson_arr_np(u, t, w, out)
