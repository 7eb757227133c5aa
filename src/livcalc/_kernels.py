"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The two inner loops that dominate runtime live here:

* ``herglotz_eval`` -- evaluate an atoms-plus-sampled-density measure model
  at an array of complex points (the Stieltjes-inversion scans hammer this);
* ``simpson_exp`` -- composite Simpson sum of exp(a*x) on [0, L] (the
  adaptive quadrature oracle hammers this).

Set ``LIVCALC_NO_NUMBA=1`` to force the numpy path; it is also selected
automatically when numba is unavailable.  The two paths sum in different
orders (``np.sum`` pairwise, numba sequentially), so their results agree to
rounding, not bit for bit.  ``benchmarks/bench_kernels.py`` compares them.
"""

from __future__ import annotations

import os

import numpy as np

_CHUNK = 256  # bounds the numpy path's temporary to a few MB


def _np_herglotz_eval(locs, weights, dens_x, dens_w, zs):
    out = np.zeros(zs.shape[0], dtype=np.complex128)
    if locs.shape[0]:
        out += np.sum(
            weights[:, None]
            * (1.0 / (locs[:, None] - zs[None, :]) - (locs / (1.0 + locs * locs))[:, None]),
            axis=0,
        )
    for k in range(0, dens_x.shape[0], _CHUNK):
        x = dens_x[k : k + _CHUNK, None]
        w = dens_w[k : k + _CHUNK, None]
        out += np.sum(w * (1.0 / (x - zs[None, :]) - x / (1.0 + x * x)), axis=0)
    return out


def _np_simpson_exp(a, length, n):
    x = np.linspace(0.0, length, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (length / n) / 3.0 * np.sum(w * np.exp(a * x))


def _numba_disabled() -> bool:
    return os.environ.get("LIVCALC_NO_NUMBA", "").strip() not in ("", "0")


try:
    from numba import njit

    HAS_NUMBA = True

    @njit(cache=True)
    def _nb_herglotz_eval(locs, weights, dens_x, dens_w, zs):
        out = np.empty(zs.shape[0], dtype=np.complex128)
        for i in range(zs.shape[0]):
            z = zs[i]
            acc = 0.0 + 0.0j
            for j in range(locs.shape[0]):
                lam = locs[j]
                acc += weights[j] * (1.0 / (lam - z) - lam / (1.0 + lam * lam))
            for j in range(dens_x.shape[0]):
                x = dens_x[j]
                acc += dens_w[j] * (1.0 / (x - z) - x / (1.0 + x * x))
            out[i] = acc
        return out

    @njit(cache=True)
    def _nb_simpson_exp(a, length, n):
        h = length / n
        total = 1.0 + 0.0j + np.exp(a * length)
        for k in range(1, n):
            w = 4.0 if k % 2 == 1 else 2.0
            total += w * np.exp(a * (h * k))
        return total * h / 3.0

except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False
    _nb_herglotz_eval = None
    _nb_simpson_exp = None

USING_NUMBA = HAS_NUMBA and not _numba_disabled()

if USING_NUMBA:
    _herglotz_impl = _nb_herglotz_eval
    _simpson_impl = _nb_simpson_exp
else:
    _herglotz_impl = _np_herglotz_eval
    _simpson_impl = _np_simpson_exp


def herglotz_eval(locs, weights, dens_x, dens_w, zs) -> np.ndarray:
    """M(z) = sum_j w_j [1/(l_j - z) - l_j/(1+l_j^2)] + same kernel against
    the density samples, whose quadrature weights are baked into ``dens_w``.
    """
    locs = np.ascontiguousarray(locs, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    dens_x = np.ascontiguousarray(dens_x, dtype=np.float64)
    dens_w = np.ascontiguousarray(dens_w, dtype=np.float64)
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    return _herglotz_impl(locs, weights, dens_x, dens_w, zs)


def simpson_exp(a: complex, length: float, n: int) -> complex:
    """Composite Simpson estimate of the integral of exp(a*x) over [0, length].

    ``n`` is the (even) panel count.
    """
    if n < 2 or n % 2:
        raise ValueError(f"panel count n={n} must be even and >= 2")
    return complex(_simpson_impl(complex(a), float(length), int(n)))


def backends() -> dict:
    """Implementations available for benchmarking, keyed by name."""
    table = {"numpy": (_np_herglotz_eval, _np_simpson_exp)}
    if HAS_NUMBA:
        table["numba"] = (_nb_herglotz_eval, _nb_simpson_exp)
    return table
