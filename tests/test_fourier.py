import numpy as np
import pytest

from levyhedge import (
    CharFn,
    DivergenceError,
    FourierConfig,
    StripError,
    call_price,
    char_fn,
    i1,
    i2,
    tail_lower,
    tail_upper,
    theorem4_condition_integral,
    to_mmm,
    transform,
)
from levyhedge.benchmarks import HORIZON, benchmark_chi_grid

ALPHAS = (1.25, 1.5, 1.75, 2.0)


# ---------------------------------------------------------------------------
# limits and ranges
# ---------------------------------------------------------------------------

def test_i1_limits(phi_merton, phi_vg, cfg):
    for phi in (phi_merton, phi_vg):
        assert i1(phi, 1e-3, cfg) == pytest.approx(1.0, abs=1e-8)
        assert i1(phi, 1e3, cfg) == pytest.approx(0.0, abs=1e-8)


def test_tail_limits(phi_merton, phi_vg, cfg):
    for phi in (phi_merton, phi_vg):
        assert tail_upper(phi, 1e-3, cfg) == pytest.approx(1.0, abs=1e-8)
        assert tail_upper(phi, 1e3, cfg) == pytest.approx(0.0, abs=1e-8)
        assert tail_lower(phi, 1e3, cfg) == pytest.approx(1.0, abs=1e-8)
        assert tail_lower(phi, 1e-3, cfg) == pytest.approx(0.0, abs=1e-8)


def test_tail_complement_identity_at_1p1(phi_vg, cfg):
    # lower + upper tails from quadratures at two different damping lines
    lo = tail_lower(phi_vg, 1.1, FourierConfig(alpha=1.25))
    hi = tail_upper(phi_vg, 1.1, FourierConfig(alpha=2.0))
    assert lo + hi == pytest.approx(1.0, abs=1e-8)


def test_i1_and_tail_monotone_and_bounded(phi_vg, cfg):
    chis = benchmark_chi_grid()
    v1 = [i1(phi_vg, c, cfg) for c in chis]
    vt = [tail_upper(phi_vg, c, cfg) for c in chis]
    for seq in (v1, vt):
        assert all(0.0 <= v <= 1.0 for v in seq)
        assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))


def test_i2_zero_measure(bs_mmm, phi_bs, cfg):
    for chi in (0.5, 1.0, 2.0):
        assert i2(bs_mmm, phi_bs, chi, cfg) == 0.0


def test_i2_nonnegative(vg_mmm, phi_vg, merton_mmm, phi_merton, cfg):
    for mmm, phi in ((vg_mmm, phi_vg), (merton_mmm, phi_merton)):
        for chi in benchmark_chi_grid()[::4]:
            assert i2(mmm, phi, chi, cfg) >= 0.0


def test_i2_small_chi_limit_is_c2(vg_mmm, phi_vg, merton_mmm, phi_merton, cfg):
    for mmm, phi in ((vg_mmm, phi_vg), (merton_mmm, phi_merton)):
        assert i2(mmm, phi, 1e-3, cfg) == pytest.approx(mmm.c2, rel=1e-6)


# ---------------------------------------------------------------------------
# damping independence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chi", [0.9037, 0.9989, 1.0464, 1.1891])
def test_i1_alpha_independence(phi_merton, phi_vg, cfg, chi):
    for phi in (phi_merton, phi_vg):
        vals = [transform("i1", phi, chi, cfg, alpha=a).value for a in ALPHAS]
        scale = max(abs(np.mean(vals)), 1e-12)
        assert (max(vals) - min(vals)) / scale <= 1e-6


@pytest.mark.parametrize("chi", [0.9037, 1.0464])
def test_i2_alpha_independence(merton_mmm, phi_merton, vg_mmm, phi_vg, cfg, chi):
    for mmm, phi in ((merton_mmm, phi_merton), (vg_mmm, phi_vg)):
        vals = [transform("i2", phi, chi, cfg, model=mmm, alpha=a).value
                for a in ALPHAS]
        scale = max(abs(np.mean(vals)), 1e-12)
        assert (max(vals) - min(vals)) / scale <= 1e-6


# ---------------------------------------------------------------------------
# call price transform
# ---------------------------------------------------------------------------

def test_price_identity_and_bounds(vg_mmm, phi_vg, merton_mmm, phi_merton, cfg):
    spot = 2102.4
    for mmm, phi in ((vg_mmm, phi_vg), (merton_mmm, phi_merton)):
        prev = None
        for chi in (0.9, 0.99, 1.0, 1.05, 1.2):
            strike = chi * spot
            p = call_price(phi, spot, strike, cfg)
            # partial-fraction identity against the two building blocks
            rhs = spot * (i1(phi, chi, cfg) - chi * tail_upper(phi, chi, cfg))
            assert p == pytest.approx(rhs, rel=1e-9, abs=1e-9 * spot)
            assert max(spot - strike, 0.0) - 1e-6 <= p <= spot
            if prev is not None:
                assert p <= prev + 1e-9
            prev = p


def test_price_limits(phi_merton, cfg):
    # at zero rates, price -> spot - strike as strike -> 0 and -> 0 as
    # strike -> infinity
    spot = 100.0
    strike = 1e-6 * spot
    assert call_price(phi_merton, spot, strike, cfg) == pytest.approx(
        spot - strike, rel=1e-9)
    assert call_price(phi_merton, spot, 1e4 * spot, cfg) == pytest.approx(
        0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# strip handling
# ---------------------------------------------------------------------------

def _narrow_strip_phi(phi):
    # same characteristic function, advertised with a strip too narrow for
    # alpha = 2 (as for a jump measure with thin exponential tails)
    return CharFn(fn=phi.fn, horizon=phi.horizon, strip_im=(-1.5, 1.0),
                  sigma=phi.sigma, carrier=phi.carrier,
                  fn_analytic=phi.fn_analytic)


def test_tail_alpha_fallback(phi_merton):
    narrow = _narrow_strip_phi(phi_merton)
    res = transform("tail", narrow, 1.05, FourierConfig(alpha=2.0))
    assert any(f.startswith("alpha-fallback") for f in res.flags)
    assert 0.0 <= res.value <= 1.0


def test_i1_strip_violation_raises(phi_merton):
    narrow = _narrow_strip_phi(phi_merton)
    with pytest.raises(StripError):
        transform("i1", narrow, 1.05, FourierConfig(alpha=2.0))


def test_explicit_tail_alpha_violation_raises(phi_merton):
    narrow = _narrow_strip_phi(phi_merton)
    with pytest.raises(StripError):
        transform("tail", narrow, 1.05, FourierConfig(alpha=1.75), alpha=2.0)


# ---------------------------------------------------------------------------
# condition integral for the large-moneyness bound
# ---------------------------------------------------------------------------

def test_condition_integral_finite_black_scholes(phi_bs, cfg):
    res = theorem4_condition_integral(phi_bs, cfg)
    assert np.isfinite(res.total)
    assert res.tail_estimate <= 1e-8 * res.value


def test_condition_integral_finite_vg(phi_vg, cfg):
    res = theorem4_condition_integral(phi_vg, cfg)
    assert np.isfinite(res.total)
    assert res.value > 0
    # fitted per-decade decay should match the pure-jump activity rate
    assert res.decay_power == pytest.approx(2 * 6.791 * HORIZON, rel=1e-3)


def test_condition_integral_stable_under_doubling(phi_merton, cfg):
    a = theorem4_condition_integral(phi_merton, cfg)
    b = theorem4_condition_integral(phi_merton, cfg, v_cut=2 * a.v_cut)
    assert b.value == pytest.approx(a.value, rel=1e-6)


def test_condition_integral_divergence_error(cfg):
    # a distribution with an atom: |phi| does not decay at all
    flat = CharFn(fn=lambda z: np.exp(1j * np.asarray(z, complex) * 0.01),
                  horizon=0.05, strip_im=(-5.0, 5.0), sigma=0.0)
    with pytest.raises(DivergenceError):
        theorem4_condition_integral(flat, cfg, v_cut=1e4)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_fourier_config_validation():
    with pytest.raises(ValueError):
        FourierConfig(n_grid=1000)
    with pytest.raises(ValueError):
        FourierConfig(eta=-0.1)
    with pytest.raises(ValueError):
        FourierConfig(alpha=1.0)
    with pytest.raises(ValueError):
        FourierConfig(alpha=2.5)
    assert FourierConfig().v_max == pytest.approx(409.6)


def test_char_fn_rejects_degenerate_model():
    from levyhedge import LevyModel, ZeroMeasure
    mmm = to_mmm(LevyModel(mu=0.0, sigma=0.0, measure=ZeroMeasure()))
    with pytest.raises(ValueError, match="degenerate"):
        char_fn(mmm, 0.05)
