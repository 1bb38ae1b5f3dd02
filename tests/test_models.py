import math

import numpy as np
import pytest
from scipy.integrate import quad

from levyhedge import StripError, mmm_cumulant, mmm_cumulant_quad, to_mmm
from levyhedge.models import (
    MertonMeasure,
    MertonParams,
    VgMeasure,
    VgParams,
    merton_c2_minus,
    vg_from_kappa,
    vg_model,
    vg_to_kappa,
)

# frozen quadrature-oracle values for the benchmark parameter sets
# (adaptive quadrature of the defining integrals, rel tol 1e-10)
MERTON_C2 = 5.94328256410398e-05
MERTON_C2_MINUS = 5.3696595275776326e-05
VG_C2_PLUS = 0.006572990789212608
VG_C2_MINUS = 0.006988523871184045


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def merton_density(p):
    return MertonMeasure(p.gamma, p.m, p.delta).density


def vg_density(p):
    return VgMeasure(p.c_par, p.g_par, p.m_par).density


def test_merton_density_mode(merton_params):
    p = merton_params
    assert merton_density(p)(p.m) == pytest.approx(
        p.gamma / (math.sqrt(2 * math.pi) * p.delta), rel=1e-14)


def test_merton_density_total_mass(merton_params):
    p = merton_params
    mass = quad(merton_density(p), -2, 2, epsabs=1e-14)[0]
    assert mass == pytest.approx(p.gamma, rel=1e-10)


def test_vg_density_formulas(vg_params):
    p = vg_params
    x = 0.3
    assert vg_density(p)(x) == pytest.approx(
        p.c_par * math.exp(-p.m_par * x) / x, rel=1e-14)
    x = -0.2
    assert vg_density(p)(x) == pytest.approx(
        p.c_par * math.exp(-p.g_par * 0.2) / 0.2, rel=1e-14)


def test_vg_density_rejects_origin(vg_params):
    with pytest.raises(ValueError, match="x = 0"):
        vg_density(vg_params)(0.0)


def test_vg_second_moment_identity(vg_params):
    # integral of x^2 nu(dx) = C (Gamma(2)/G^2 + Gamma(2)/M^2)
    #                        = C (1/G^2 + 1/M^2), checked against quadrature
    p = vg_params
    expected = p.c_par * (1.0 / p.g_par**2 + 1.0 / p.m_par**2)
    dens = vg_density(p)
    got = sum(quad(lambda x: x * x * dens(x), a, b,
                   epsabs=1e-14, limit=200)[0]
              for a, b in [(-3, 0), (0, 3)])
    assert got == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# parameter conversions
# ---------------------------------------------------------------------------

def test_vg_from_kappa_symmetric_case():
    p = vg_from_kappa(kappa=0.02, m=0.0, delta=0.1)
    assert p.g_par == pytest.approx(p.m_par, rel=1e-14)
    assert p.g_par == pytest.approx(math.sqrt(2.0 / (0.1**2 * 0.02)), rel=1e-14)


def test_vg_from_kappa_unit_case():
    # kappa=1, m=0, delta=1 would give C=1, G=M=sqrt(2), which violates the
    # M > 4 moment requirement, so the conversion reports a constraint error
    with pytest.raises(ValueError, match="M must exceed 4"):
        vg_from_kappa(1.0, 0.0, 1.0)
    # same algebra on an admissible input: C = 1/kappa, G = M = sqrt(2/(d^2 k))
    p = vg_from_kappa(0.02, 0.0, 0.3)
    assert p.c_par == pytest.approx(50.0, rel=1e-14)
    assert p.g_par == pytest.approx(p.m_par, rel=1e-14)
    assert p.g_par == pytest.approx(math.sqrt(2.0 / (0.3**2 * 0.02)), rel=1e-14)


def test_vg_roundtrip_benchmark(vg_params):
    kappa, m, delta = vg_to_kappa(vg_params)
    back = vg_from_kappa(kappa, m, delta)
    assert back.c_par == pytest.approx(vg_params.c_par, rel=1e-12)
    assert back.g_par == pytest.approx(vg_params.g_par, rel=1e-12)
    assert back.m_par == pytest.approx(vg_params.m_par, rel=1e-12)


def test_vg_params_validation():
    with pytest.raises(ValueError):
        VgParams(c_par=1.0, g_par=10.0, m_par=3.9)
    with pytest.raises(ValueError):
        VgParams(c_par=-1.0, g_par=10.0, m_par=10.0)


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

def test_merton_c2_minus_closed_form(merton_params):
    p = merton_params
    val = merton_c2_minus(p)
    assert val == pytest.approx(MERTON_C2_MINUS, rel=1e-10)
    dens = merton_density(p)
    oracle = quad(lambda x: (np.exp(x) - 1) ** 2 * dens(x),
                  -2.5, 0.0, epsabs=1e-16)[0]
    assert val == pytest.approx(oracle, rel=1e-10)


def test_merton_c2_minus_limits():
    tiny = merton_c2_minus(MertonParams(mu=0, sigma=0.1, gamma=1e-12,
                                        m=-0.1, delta=0.1))
    assert tiny == pytest.approx(0.0, abs=1e-12)
    # all jumps far positive: the negative-side moment collapses
    pos = merton_c2_minus(MertonParams(mu=0, sigma=0.1, gamma=1.0,
                                       m=3.0, delta=0.1))
    assert pos == pytest.approx(0.0, abs=1e-10)


def test_vg_c2_split_closed_forms(vg_mmm):
    assert vg_mmm.c2_plus == pytest.approx(VG_C2_PLUS, rel=1e-10)
    assert vg_mmm.c2_minus == pytest.approx(VG_C2_MINUS, rel=1e-10)


def test_model_c2_against_split_sum(merton_mmm):
    assert merton_mmm.c2 == pytest.approx(MERTON_C2, rel=1e-10)


# ---------------------------------------------------------------------------
# closed-form cumulants vs quadrature oracle
# ---------------------------------------------------------------------------

def test_merton_cumulant_trivial_points(merton_mmm):
    assert abs(mmm_cumulant(merton_mmm, 0.0)) <= 1e-12
    assert abs(mmm_cumulant(merton_mmm, -1j)) <= 1e-12


def test_vg_cumulant_trivial_points(vg_mmm):
    assert abs(mmm_cumulant(vg_mmm, 0.0)) <= 1e-12
    assert abs(mmm_cumulant(vg_mmm, -1j)) <= 1e-12


def test_merton_cumulant_vs_quadrature(merton_mmm):
    z = 0.7 - 1.75j
    a = mmm_cumulant(merton_mmm, z)
    b = mmm_cumulant_quad(merton_mmm, z)
    assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_vg_cumulant_vs_quadrature(vg_mmm):
    z = 1.0 - 2.0j
    a = mmm_cumulant(vg_mmm, z)
    b = mmm_cumulant_quad(vg_mmm, z)
    assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_closed_vs_quadrature_random_points(merton_mmm, vg_mmm, rng):
    for mmm in (merton_mmm, vg_mmm):
        lo, hi = mmm.strip()
        for _ in range(20):
            z = complex(rng.uniform(-20, 20),
                        rng.uniform(max(lo, -2.0) + 0.05, 0.0))
            a = mmm_cumulant(mmm, z)
            b = mmm_cumulant_quad(mmm, z)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_vg_cumulant_valid_at_two_below(vg_mmm):
    # the damping line Im(z) = -2 must be inside the strip whenever M > 4
    val = mmm_cumulant(vg_mmm, 5.0 - 2.0j)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_vg_cumulant_strip_error(vg_params, vg_mmm):
    bad_im = -(vg_params.m_par + 2.0)
    with pytest.raises(StripError, match="strip"):
        mmm_cumulant(vg_mmm, 1.0 + 1j * bad_im)


def test_vg_cumulant_with_diffusion(vg_params):
    # optional Brownian component keeps the martingale identity
    val = mmm_cumulant(to_mmm(vg_model(vg_params, sigma=0.1)), -1j)
    assert abs(val) <= 1e-12
