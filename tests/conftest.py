import functools
import math

import numpy as np
import pytest

import rkhslab as rl

FOURIER_BAND = 64 * math.pi


@pytest.fixture(scope="session")
def brownian_space():
    grid = rl.make_uniform_grid(0, 1, 200, "trapezoid")
    kernel = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
    return rl.make_rkhs_space(kernel)


@pytest.fixture(scope="session")
def sinc_space():
    grid = rl.make_uniform_grid(0, 1, 200, "trapezoid")
    kernel = rl.assemble_kernel(rl.builtin_kernel("sinc", band=math.pi), grid)
    return rl.make_rkhs_space(kernel)


@pytest.fixture(scope="session")
def indicator_op():
    grid_E = rl.make_uniform_grid(0, 1, 200, "midpoint")
    grid_T = rl.make_uniform_grid(0, 1, 200, "midpoint")
    fm = rl.make_feature_map(rl.FeatureFamily("indicator"), grid_T, grid_E)
    return rl.build_transform(fm)


@pytest.fixture(scope="session")
def fourier_op():
    grid_E = rl.make_uniform_grid(0, 1, 64, "trapezoid")
    grid_T = rl.make_uniform_grid(-FOURIER_BAND, FOURIER_BAND, 64, "trapezoid")
    fm = rl.make_feature_map(rl.FeatureFamily("fourier", band=FOURIER_BAND), grid_T, grid_E)
    return rl.build_transform(fm)


@pytest.fixture(scope="session")
def orthonormal_op():
    grid_E = rl.make_uniform_grid(0, 1, 100, "trapezoid")
    grid_T = rl.make_uniform_grid(0, 1, 100, "trapezoid")
    fm = rl.make_feature_map(rl.FeatureFamily("orthonormal_diagonal"), grid_T, grid_E)
    return rl.build_transform(fm)


@pytest.fixture(scope="session")
def rank_one_op():
    grid_T = rl.make_uniform_grid(0, 1, 1, "midpoint")
    grid_E = rl.make_uniform_grid(0, 1, 200, "midpoint")
    fm = rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=np.ones((1, 200)))
    return rl.build_transform(fm)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Counts calls of ``np.linalg.eigvalsh``."""
    calls = []
    original = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def random_range_function(kernel, rng, complex_mode=False):
    """A function guaranteed inside the numerical range of the kernel operator."""
    raw = rng.standard_normal(kernel.grid.size)
    if complex_mode:
        raw = raw + 1j * rng.standard_normal(kernel.grid.size)
    seed_fn = rl.DiscreteFunction(values=raw, grid=kernel.grid)
    return rl.apply_operator(kernel, seed_fn)


#: the rank certificate's test cases: where the smallest eigenvalue sits,
#: from the cutoff ``cutoff_rel * lambda_max`` and the certificate's shift c.
#: At 3 c refinement with the shifted factor contracts by 1/2 a step, too
#: slowly; at 1.5 c it diverges.
CERTIFICATE_CASES = {
    "above-shift": lambda cutoff, shift: 10.0 * shift,
    "slow-refinement": lambda cutoff, shift: 3.0 * shift,
    "diverging-refinement": lambda cutoff, shift: 1.5 * shift,
    "between": lambda cutoff, shift: math.sqrt(cutoff * shift),
    "below-cutoff": lambda cutoff, shift: cutoff / 10.0,
}


def certificate_spectrum(r, case, cutoff_rel):
    """Descending eigenvalues with ``lambda_max = 1`` and the smallest placed by ``case``.

    Four eigenvalues at 1 and a geometric bulk from 1e-2 to 1e-6 keep the
    trace O(lambda_max) and make ``||A||_F`` about twice ``lambda_max``, so
    the shift ``c`` lies about a factor 2 above the cutoff.
    """
    lam = np.concatenate([np.ones(4), np.geomspace(1e-2, 1e-6, r - 5), [0.0]])
    shift = rl.kernel._certificate_shift(np.diag(lam), cutoff_rel)
    lam[-1] = CERTIFICATE_CASES[case](cutoff_rel, shift)
    return lam


@functools.lru_cache(maxsize=None)
def orthonormal_columns(n, r, seed=0):
    """An n x r matrix with orthonormal columns from a seeded QR, read-only and shared."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, r)))
    Q.flags.writeable = False
    return Q


def kernel_with_spectrum(lam):
    """A kernel on a midpoint grid whose weighted form ``S`` has the eigenvalues ``lam``."""
    grid = rl.make_uniform_grid(0, 1, lam.size, "midpoint")
    P = orthonormal_columns(lam.size, lam.size) / np.sqrt(grid.weights)[:, None]
    return rl.kernel_from_gram((P * lam) @ P.T, grid)
