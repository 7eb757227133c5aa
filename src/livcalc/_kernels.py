"""Hot numeric kernels in numpy.

The two inner loops that dominate runtime live here:

* ``herglotz_eval`` -- evaluate an atoms-plus-sampled-density measure model
  at an array of complex points (the Stieltjes-inversion scans hammer this);
* ``simpson_exp`` -- composite Simpson sum of exp(a*x) on [0, L] (the
  adaptive quadrature oracle hammers this).
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 16  # kernel entries per block: bounds the temporary to 1 MB


def herglotz_eval(locs, weights, dens_x, dens_w, zs) -> np.ndarray:
    """M(z) = sum_j w_j [1/(l_j - z) - l_j/(1+l_j^2)] + same kernel against
    the density samples, whose quadrature weights are baked into ``dens_w``.

    Each point's sum runs along one row of the kernel matrix, so its value
    does not depend on which other points are evaluated with it.
    """
    x = np.concatenate([np.asarray(locs, dtype=np.float64),
                        np.asarray(dens_x, dtype=np.float64)])
    w = np.concatenate([np.asarray(weights, dtype=np.float64),
                        np.asarray(dens_w, dtype=np.float64)])
    zs = np.asarray(zs, dtype=np.complex128)
    shift = x / (1.0 + x * x)
    out = np.empty(zs.shape[0], dtype=np.complex128)
    rows = max(1, _CHUNK // max(1, x.shape[0]))
    for k in range(0, zs.shape[0], rows):
        z = zs[k : k + rows, None]
        out[k : k + rows] = np.sum(w * (1.0 / (x - z) - shift), axis=1)
    return out


def simpson_exp(a: complex, length: float, n: int) -> complex:
    """Composite Simpson estimate of the integral of exp(a*x) over [0, length].

    ``n`` is the (even) panel count.
    """
    if n < 2 or n % 2:
        raise ValueError(f"panel count n={n} must be even and >= 2")
    length = float(length)
    x = np.linspace(0.0, length, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex((length / n) / 3.0 * np.sum(w * np.exp(complex(a) * x)))
