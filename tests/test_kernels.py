import numpy as np
import pytest

from livcalc import _kernels


def random_measure_inputs(seed=0):
    rng = np.random.default_rng(seed)
    locs = rng.uniform(-3, 3, 5)
    weights = rng.uniform(0.1, 2.0, 5)
    dens_x = np.linspace(-4.0, 4.0, 41)
    dens_w = rng.uniform(0.0, 0.2, 41)
    zs = rng.uniform(-5, 5, 64) + 1j * rng.uniform(0.05, 4.0, 64)
    return locs, weights, dens_x, dens_w, zs.astype(np.complex128)


class TestHerglotzEval:
    def test_matches_direct_formula(self):
        locs, weights, dens_x, dens_w, zs = random_measure_inputs()
        got = _kernels.herglotz_eval(locs, weights, dens_x, dens_w, zs)
        expected = np.zeros_like(zs)
        for lam, w in zip(np.concatenate([locs, dens_x]), np.concatenate([weights, dens_w])):
            expected += w * (1.0 / (lam - zs) - lam / (1.0 + lam * lam))
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13)

    def test_empty_arrays(self):
        zs = np.array([1j, 2j])
        got = _kernels.herglotz_eval(
            np.empty(0), np.empty(0), np.empty(0), np.empty(0), zs
        )
        np.testing.assert_array_equal(got, np.zeros(2, dtype=np.complex128))


class TestGaussExp:
    def test_against_closed_antiderivative(self):
        t, w = np.polynomial.legendre.leggauss(16)
        nodes, weights = (t + 1.0) / 2.0, (w / 2.0)[:, None]
        b = np.array([-1j * (2 + 2j) + 1.0, 0.5 - 1.5j])
        got = _kernels.gauss_exp(b, nodes, weights)
        assert got.shape == (2, 1)
        np.testing.assert_allclose(got[:, 0], np.expm1(b) / b, rtol=1e-14)


class TestSimpsonExp:
    def test_against_closed_antiderivative(self):
        a = -1j * (2 + 2j) + 1.0
        got = _kernels.simpson_exp(a, 1.5, 4096)
        expected = (np.exp(a * 1.5) - 1.0) / a
        assert abs(got - expected) < 1e-12

    def test_rejects_odd_panel_count(self):
        with pytest.raises(ValueError):
            _kernels.simpson_exp(1.0, 1.0, 7)

