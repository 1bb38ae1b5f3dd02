import numpy as np
import pytest

from levyhedge import fourier
from levyhedge import (
    CharFn,
    DivergenceError,
    FourierConfig,
    StripError,
    call_price,
    char_fn,
    mmm_cumulant,
    theorem4_condition_integral,
    to_mmm,
    transform,
)
from levyhedge.benchmarks import HORIZON, benchmark_chi_grid
from levyhedge.models import VgParams, vg_model

ALPHAS = (1.25, 1.5, 1.75, 2.0)


def value(kind, phi, chi, cfg, model=None):
    return transform(kind, phi, chi, cfg, model=model).value


# ---------------------------------------------------------------------------
# limits and ranges
# ---------------------------------------------------------------------------

def test_i1_limits(phi_merton, phi_vg, cfg):
    for phi in (phi_merton, phi_vg):
        assert value("i1", phi, 1e-3, cfg) == pytest.approx(1.0, abs=1e-8)
        assert value("i1", phi, 1e3, cfg) == pytest.approx(0.0, abs=1e-8)


def test_tail_limits(phi_merton, phi_vg, cfg):
    for phi in (phi_merton, phi_vg):
        assert value("tail", phi, 1e-3, cfg) == pytest.approx(1.0, abs=1e-8)
        assert value("tail", phi, 1e3, cfg) == pytest.approx(0.0, abs=1e-8)
        assert 1.0 - value("tail", phi, 1e3, cfg) == pytest.approx(1.0, abs=1e-8)
        assert 1.0 - value("tail", phi, 1e-3, cfg) == pytest.approx(0.0, abs=1e-8)


def test_tail_complement_identity_at_1p1(phi_vg, cfg):
    # lower + upper tails from quadratures at two different damping lines
    lo = 1.0 - value("tail", phi_vg, 1.1, FourierConfig(alpha=1.25))
    hi = value("tail", phi_vg, 1.1, FourierConfig(alpha=2.0))
    assert lo + hi == pytest.approx(1.0, abs=1e-8)


def test_i1_and_tail_monotone_and_bounded(phi_vg, cfg):
    chis = benchmark_chi_grid()
    v1 = [value("i1", phi_vg, c, cfg) for c in chis]
    vt = [value("tail", phi_vg, c, cfg) for c in chis]
    for seq in (v1, vt):
        assert all(0.0 <= v <= 1.0 for v in seq)
        assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))


def test_i2_zero_measure(bs_mmm, phi_bs, cfg):
    for chi in (0.5, 1.0, 2.0):
        assert value("i2", phi_bs, chi, cfg, model=bs_mmm) == 0.0


def test_i2_nonnegative(vg_mmm, phi_vg, merton_mmm, phi_merton, cfg):
    for mmm, phi in ((vg_mmm, phi_vg), (merton_mmm, phi_merton)):
        for chi in benchmark_chi_grid()[::4]:
            assert value("i2", phi, chi, cfg, model=mmm) >= 0.0


def test_i2_small_chi_limit_is_c2(vg_mmm, phi_vg, merton_mmm, phi_merton, cfg):
    for mmm, phi in ((vg_mmm, phi_vg), (merton_mmm, phi_merton)):
        assert value("i2", phi, 1e-3, cfg, model=mmm) == pytest.approx(mmm.c2,
                                                                      rel=1e-6)


# ---------------------------------------------------------------------------
# damping independence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chi", [0.9037, 0.9989, 1.0464, 1.1891])
def test_i1_alpha_independence(phi_merton, phi_vg, chi):
    for phi in (phi_merton, phi_vg):
        vals = [value("i1", phi, chi, FourierConfig(alpha=a)) for a in ALPHAS]
        scale = max(abs(np.mean(vals)), 1e-12)
        assert (max(vals) - min(vals)) / scale <= 1e-6


@pytest.mark.parametrize("chi", [0.9037, 1.0464])
def test_i2_alpha_independence(merton_mmm, phi_merton, vg_mmm, phi_vg, chi):
    for mmm, phi in ((merton_mmm, phi_merton), (vg_mmm, phi_vg)):
        vals = [value("i2", phi, chi, FourierConfig(alpha=a), model=mmm)
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
            rhs = spot * (value("i1", phi, chi, cfg)
                          - chi * value("tail", phi, chi, cfg))
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


# ---------------------------------------------------------------------------
# condition integral for the large-moneyness bound
# ---------------------------------------------------------------------------

def test_condition_integral_finite_black_scholes(phi_bs):
    res = theorem4_condition_integral(phi_bs)
    assert np.isfinite(res.total)
    assert res.tail_estimate <= 1e-8 * res.value


def test_condition_integral_finite_vg(phi_vg):
    res = theorem4_condition_integral(phi_vg)
    assert np.isfinite(res.total)
    assert res.value > 0
    # fitted per-decade decay should match the pure-jump activity rate
    assert res.decay_power == pytest.approx(2 * 6.791 * HORIZON, rel=1e-3)


def test_condition_integral_stable_under_doubling(phi_merton):
    a = theorem4_condition_integral(phi_merton)
    b = theorem4_condition_integral(phi_merton, v_cut=2 * a.v_cut)
    assert b.value == pytest.approx(a.value, rel=1e-6)


def test_condition_integral_divergence_error():
    # a distribution with an atom: |phi| does not decay at all
    flat = CharFn(fn=lambda z: np.exp(1j * np.asarray(z, complex) * 0.01),
                  horizon=0.05, strip_im=(-5.0, 5.0), sigma=0.0)
    with pytest.raises(DivergenceError):
        theorem4_condition_integral(flat, v_cut=1e4)


def test_condition_integral_vg_one_day_is_finite(vg_mmm):
    # |phi(v - 2i)| decays like v^(-2 C tau) with 2 C tau = 0.037: slow but
    # integrable, so the power-law tail estimate must close the integral
    phi = char_fn(vg_mmm, 1.0 / 365.0)
    res = theorem4_condition_integral(phi)
    far = theorem4_condition_integral(phi, v_cut=1e12)
    assert type(res.tail_estimate) is float
    assert res.total == pytest.approx(far.total, rel=1e-8)
    assert res.total == pytest.approx(30.3156, rel=1e-5)


def test_condition_integral_small_stable_power_is_finite():
    # admissible VG (C, G, M) = (0.5, 5, 7) at one day: the fitted power
    # 2 C tau = 0.00274 is small but stable, so the integral is finite and
    # its power-law tail estimate must not move with the cut
    phi = char_fn(to_mmm(vg_model(VgParams(0.5, 5.0, 7.0))), 1.0 / 365.0)
    res = theorem4_condition_integral(phi)
    far = theorem4_condition_integral(phi, v_cut=1e12)
    assert res.decay_power == pytest.approx(1.0 / 365.0, rel=1e-6)
    assert res.total == pytest.approx(far.total, rel=1e-9)


def test_condition_integral_drifting_decay_diverges():
    # no decay at all (an atom), and a decay power that keeps falling
    # (1/log v: the power fitted per decade never settles)
    flat = CharFn(fn=lambda z: np.exp(1j * np.asarray(z, complex) * 0.01),
                  horizon=0.05, strip_im=(-5.0, 5.0), sigma=0.0)
    slow = CharFn(fn=lambda z: 1.0 / np.log(np.e + np.abs(z)),
                  horizon=0.05, strip_im=(-5.0, 5.0), sigma=0.0)
    for phi in (flat, slow):
        with pytest.raises(DivergenceError):
            theorem4_condition_integral(phi)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_fourier_config_validation():
    with pytest.raises(ValueError):
        FourierConfig(alpha=1.0)
    with pytest.raises(ValueError):
        FourierConfig(alpha=2.5)


def test_char_fn_rejects_degenerate_model():
    from levyhedge import LevyModel, ZeroMeasure
    mmm = to_mmm(LevyModel(mu=0.0, sigma=0.0, measure=ZeroMeasure()))
    with pytest.raises(ValueError, match="degenerate"):
        char_fn(mmm, 0.05)


# ---------------------------------------------------------------------------
# the scalar memo of char_fn
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chi", [1.0, 2.5], ids=["atm", "osc"])
@pytest.mark.parametrize("family", ["merton", "vg"])
def test_transforms_of_one_strike_evaluate_each_point_once(
        family, chi, request, monkeypatch, cfg):
    # the cos/sin pair of the oscillatory rule, the re/im pair of the
    # contour and the three kinds of one strike share phi's scalar points
    mmm = request.getfixturevalue(f"{family}_mmm")
    phi = char_fn(mmm, 0.05)
    seen = []

    def counted(model, z, check_strip=True):
        if np.ndim(z) == 0:
            seen.append((repr(complex(z)), check_strip))
        return mmm_cumulant(model, z, check_strip)

    monkeypatch.setattr(fourier, "mmm_cumulant", counted)
    for kind in ("i1", "i2", "tail"):
        transform(kind, phi, chi, cfg, model=mmm)
    assert seen and len(seen) == len(set(seen))


def test_char_fn_memo_stays_capped(vg_mmm, monkeypatch, cfg):
    # one CharFn serving many transforms: its memos never outgrow the cap,
    # and starting over changes no result
    cases = [(kind, chi) for chi in (0.5, 0.9, 1.0, 1.1, 2.0)
             for kind in ("i1", "tail")]
    want = [transform(kind, char_fn(vg_mmm, 0.05), chi, cfg)
            for kind, chi in cases]
    monkeypatch.setattr(fourier, "_MEMO_SIZE", 64)
    phi = char_fn(vg_mmm, 0.05)
    phi.fn(np.linspace(0.0, 10.0, 100) - 1.75j)
    assert len(phi.fn.memo) == 0        # arrays bypass the memo
    for (kind, chi), ref in zip(cases, want):
        assert transform(kind, phi, chi, cfg) == ref
        for memo in (phi.fn.memo, phi.fn_analytic.memo):
            assert 0 < len(memo) <= 64
