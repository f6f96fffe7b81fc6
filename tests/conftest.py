"""Shared fixtures: the two worked data sets and their frozen constants.

The worked constants were recomputed with the independent corner-system
oracle in ``corner_oracle`` below (a direct dense solve of the two
(m+1)-window systems) before being frozen here.
"""

import numpy as np
import pytest
from hypothesis import settings

import hankelinv as hv

settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("suite")

# frozen worked-fixture constants (scalar data)
A0 = 4.0 / 3.0
B0 = -2.0 / 3.0
G_CONST = 0.5


def corner_oracle(g_coeffs):
    """Independent forward oracle: dense solve of the two corner systems.

    ``g_coeffs`` lists the scalar coefficients g_0..g_m.  Returns the four
    coefficient vectors (a, b, c, d) with a, b indexed by degree 0..m and
    c, d by degree -m..0.
    """
    m = len(g_coeffs) - 1
    nb = m + 1
    G = np.zeros((nb, nb), dtype=complex)
    for i in range(nb):
        for j in range(nb):
            k = i - (j - (nb - 1))
            if 0 <= k <= m:
                G[i, j] = g_coeffs[k]
    om = np.block([[np.eye(nb), G], [G.conj().T, np.eye(nb)]])
    e_first = np.zeros(2 * nb)
    e_first[0] = 1.0
    e_last = np.zeros(2 * nb)
    e_last[-1] = 1.0
    ac = np.linalg.solve(om, e_first)
    bd = np.linalg.solve(om, e_last)
    return ac[:nb], bd[:nb], ac[nb:], bd[nb:]


@pytest.fixture(scope="session")
def deg0_fixture():
    """Scalar data generated by g = 1/2 (a0 = d0 = 4/3, b0 = c0 = -2/3)."""
    fx = hv.synthesize_data(hv.LaurentPoly.constant([[G_CONST]]), note="deg0")
    assert abs(fx.data.a0[0, 0] - A0) < 1e-12
    assert abs(fx.data.d0[0, 0] - A0) < 1e-12
    assert abs(fx.data.beta.coeff(0)[0, 0] - B0) < 1e-12
    assert abs(fx.data.gamma.coeff(0)[0, 0] - B0) < 1e-12
    return fx


@pytest.fixture(scope="session")
def deg1_fixture():
    """Scalar data generated by g = z/2 (entries shifted one degree out)."""
    fx = hv.synthesize_data(hv.LaurentPoly.single(1, [[G_CONST]]), note="deg1")
    d = fx.data
    assert abs(d.alpha.coeff(0)[0, 0] - A0) < 1e-12
    assert abs(d.alpha.coeff(1)[0, 0]) < 1e-12
    assert abs(d.beta.coeff(1)[0, 0] - B0) < 1e-12
    assert abs(d.beta.coeff(0)[0, 0]) < 1e-12
    assert abs(d.gamma.coeff(-1)[0, 0] - B0) < 1e-12
    assert abs(d.gamma.coeff(0)[0, 0]) < 1e-12
    assert abs(d.delta.coeff(0)[0, 0] - A0) < 1e-12
    assert abs(d.delta.coeff(-1)[0, 0]) < 1e-12
    return fx


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_poly(rng, rows, cols, degrees, scale=1.0):
    """Complex Gaussian coefficients at ``degrees``, drawn in the order given."""
    degrees = list(degrees)
    lo = min(degrees, default=0)
    run = np.zeros((max(degrees, default=lo - 1) - lo + 1, rows, cols), dtype=complex)
    for d in degrees:
        run[d - lo] = scale * (
            rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        )
    return hv.LaurentPoly.from_run(lo, run)
