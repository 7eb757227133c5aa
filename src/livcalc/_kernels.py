"""Hot numeric kernels in numpy.

The inner loops that dominate runtime live here:

* ``herglotz_eval`` -- evaluate an atoms-plus-sampled-density measure model
  at an array of complex points (the Stieltjes-inversion scans hammer this);
* ``gauss_exp`` -- weighted sums of exp(b*t) over a node set for one or
  several exponents and several weight columns at once (the quadrature
  oracle's composite Gauss-Legendre step on [-1, 0], one exponent per call);
* ``simpson_weights`` -- the composite Simpson weights, used by sampled
  densities and by ``simpson_exp``, the composite Simpson sum of exp(a*x)
  on [0, L]: the oracle's former rule, kept as a reference kernel.
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
        out[k : k + rows] = np.einsum("kn,n->k", 1.0 / (x - z) - shift, w)
    return out


def gauss_exp(b, nodes, weights) -> np.ndarray:
    """Sums of weights[:, r] * exp(b * nodes) over the nodes, with ``b``
    broadcast against ``nodes``: a row of weights.shape[1] sums for a scalar
    ``b``, a (len(b), weights.shape[1]) matrix for a column b[:, None].  One
    ``exp`` and one matrix product; complex nodes and weights cast nothing.

    With ``nodes`` on an interval such as [-1, 0] and one quadrature rule
    per column of ``weights`` (zero off that rule's nodes), entry (k, r) is
    rule r's estimate of the integral of exp(b[k] t) over that interval.  A
    column may fold a real factor f(t) into its weights; it then estimates
    the integral of f(t) exp(b[k] t).
    """
    return np.dot(np.exp(b * nodes), weights)


def simpson_weights(n_samples: int, h: float) -> np.ndarray:
    """Composite Simpson weights (h/3) (1, 4, 2, ..., 2, 4, 1) on an odd
    number of samples spaced ``h`` apart."""
    w = np.ones(n_samples)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def simpson_exp(a: complex, length: float, n: int) -> complex:
    """Composite Simpson estimate of the integral of exp(a*x) over [0, length].

    ``n`` is the (even) panel count.  The oracle no longer calls it; it stays
    as a reference kernel, and because the benchmark tracer in
    ``perfbench/tracing.py`` wraps it by name.
    """
    if n < 2 or n % 2:
        raise ValueError(f"panel count n={n} must be even and >= 2")
    length = float(length)
    x = np.linspace(0.0, length, n + 1)
    return complex(np.sum(simpson_weights(n + 1, length / n) * np.exp(complex(a) * x)))
