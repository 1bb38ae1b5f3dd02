import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levyhedge import fourier
from levyhedge import (
    AccuracyError,
    CharFn,
    FourierConfig,
    LevyModel,
    StripError,
    c2_split,
    call_price,
    char_fn,
    compute_mu_s,
    mmm_cumulant,
    theorem4_condition_integral,
    to_mmm,
    transform,
    transform_batch,
)
from levyhedge.benchmarks import HORIZON, benchmark_chi_grid
from levyhedge.fourier import call_prices
from levyhedge.models import (MertonMeasure, VgMeasure, VgParams, vg_from_kappa,
                              vg_model)

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


def test_i2_zero_measure(bs_mmm, cfg):
    # without jumps the i2 factor g(w + 1) - g(w) - g(1) is 0 at every
    # node, so both evaluators return +0.0 with no error and no flag
    chis = (0.5, 1.0, 2.0)
    for tau in (1.0 / 365.0, HORIZON, 5.0):
        phi = char_fn(bs_mmm, tau)
        (batch,) = transform_batch(("i2",), phi, chis, cfg, bs_mmm).values()
        oracle = [transform("i2", phi, chi, cfg, model=bs_mmm) for chi in chis]
        for res in list(batch) + oracle:
            assert (res.value, math.copysign(1.0, res.value)) == (0.0, 1.0)
            assert res.err_est == 0.0 and res.flags == ()


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


def test_narrow_strip_raises_strip_error(merton_mmm, phi_merton):
    # no kind has a fallback line: the oracle, the batch engine (for the
    # whole call) and the condition integral all refuse a line outside the
    # strip
    narrow = _narrow_strip_phi(phi_merton)
    cfg = FourierConfig(alpha=2.0)
    for kind in ("i1", "tail", "price", "i2"):
        with pytest.raises(StripError):
            transform(kind, narrow, 1.05, cfg, model=merton_mmm)
        with pytest.raises(StripError):
            transform_batch((kind,), narrow, [0.95, 1.05], cfg, merton_mmm)
    with pytest.raises(StripError):
        theorem4_condition_integral(narrow)


def test_i1_strip_violation_raises(phi_merton):
    narrow = _narrow_strip_phi(phi_merton)
    with pytest.raises(StripError):
        transform("i1", narrow, 1.05, FourierConfig(alpha=2.0))


def test_call_prices_refuses_a_nan_cumulant(merton_mmm, cfg, monkeypatch):
    # one NaN of Psi on one head node spoils every price of the expiry
    real = fourier.mmm_cumulant

    def spoiled(model, z, *args, **kwargs):
        out = real(model, z, *args, **kwargs)
        if isinstance(z, np.ndarray) and kwargs.get("check_strip", True):
            out[0][0, 0] = math.nan
        return out

    monkeypatch.setattr(fourier, "mmm_cumulant", spoiled)
    with pytest.raises(AccuracyError, match="not finite"):
        call_prices(merton_mmm, 100.0, [0.25], [np.array([90.0, 100.0])], cfg)


@pytest.mark.parametrize("spot, strike", [(100.0, 0.0), (100.0, -90.0),
                                          (0.0, 90.0), (-100.0, 90.0),
                                          (100.0, math.nan),
                                          (100.0, math.inf)])
def test_call_prices_refuses_non_positive_inputs(merton_mmm, cfg, spot,
                                                 strike):
    # as call_price and transform_batch refuse them, before any node is built
    with pytest.raises(ValueError, match="positive"):
        call_prices(merton_mmm, spot, [0.25, 1.0],
                    [np.array([90.0, 100.0]), np.array([100.0, strike])], cfg)


@pytest.mark.parametrize("family", ["merton", "vg"])
def test_call_prices_takes_an_expiry_without_strikes(family, request, cfg):
    # it prices nothing, has an empty Jacobian block, and leaves the other
    # expiry's prices and Jacobian as a call without it gives them
    mmm = request.getfixturevalue(f"{family}_mmm")

    def dpsi(z, moments):
        return np.stack([z, moments[0]])

    strikes = np.array([90.0])
    alone = call_prices(mmm, 100.0, [0.25], [strikes], cfg, dpsi=dpsi)
    (prices, empty), (jac, empty_jac) = call_prices(
        mmm, 100.0, [0.25, 0.25], [strikes, np.array([])], cfg, dpsi=dpsi)
    assert np.array_equal(prices, alone[0][0])
    assert np.array_equal(jac, alone[1][0])
    assert empty.shape == (0,) and empty_jac.shape == (0, 2)
    assert np.array_equal(call_prices(mmm, 100.0, [0.25, 0.25],
                                      [strikes, np.array([])], cfg)[0],
                          alone[0][0])


@pytest.mark.parametrize("family", ["merton", "vg", "bs"])
def test_call_prices_deep_out_of_the_money(family, request, cfg):
    # prices of order 1e-19, rounding around zero, still come out finite
    # and non-negative
    mmm = request.getfixturevalue(f"{family}_mmm")
    (prices,) = call_prices(mmm, 1.0, [1.0 / 365.0], [np.array([1e3, 1e4])],
                            cfg)
    assert np.all(np.isfinite(prices)) and np.all(prices >= 0.0)


# ---------------------------------------------------------------------------
# condition integral for the large-moneyness bound
# ---------------------------------------------------------------------------

def condition_integral_reference(phi):
    """Integral of |phi(v - 2i)| / (1 + v) by adaptive quadrature on
    panels: 10 wide to 1e3, where the jump part of phi may still oscillate,
    one per decade to 1e8, then 10 wide in t = log v out to 1e300, closed
    by |phi(1e300 - 2i)| / p with the decay power p fitted over the last
    decade.  Independent of the engine's nodes and of its asymptote."""
    def mod(v):
        return abs(phi.fn(complex(v, -2.0)))

    def q(f, a, b):
        return quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=1000,
                    full_output=1)[0]

    edges = np.concatenate([np.arange(0.0, 1e3, 10.0), 10.0 ** np.arange(3, 9)])
    total = sum(q(lambda v: mod(v) / (1.0 + v), a, b)
                for a, b in zip(edges[:-1], edges[1:]))
    if mod(1e8) == 0.0:
        return total
    cuts = np.linspace(math.log(1e8), math.log(1e300), 68)
    total += sum(q(lambda t: mod(math.exp(t)) / (1.0 + math.exp(-t)), a, b)
                 for a, b in zip(cuts[:-1], cuts[1:]))
    m299, m300 = mod(1e299), mod(1e300)
    if m300 == 0.0:
        return total
    return total + m300 * math.log(10.0) / math.log(m299 / m300)


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
    # the head nodes reach past the Gaussian cutoff, so integrating much
    # further (the reference runs out to 1e300) changes nothing
    res = theorem4_condition_integral(phi_merton)
    ref = condition_integral_reference(phi_merton)
    assert abs(res.total - ref) <= 1e-12 * ref + res.err_est


def _atom(z):
    # the characteristic function of a point mass at 0.01
    return np.exp(1j * np.asarray(z, complex) * 0.01)


def test_char_fn_rejects_degenerate_model(pure_jump_merton):
    # with sigma = 0 and no closed-form asymptote the decay of phi is
    # unknown, so neither a transform nor the condition integral could be
    # closed: pure-jump Merton (its law has an atom, so |phi| does not
    # decay) is refused by char_fn, and a hand-built CharFn as it is built;
    # the deterministic model never gets this far (to_mmm refuses it)
    with pytest.raises(ValueError, match="asymptote"):
        char_fn(pure_jump_merton, HORIZON)
    with pytest.raises(ValueError, match="asymptote"):
        CharFn(fn=_atom, horizon=0.05, strip_im=(-5.0, 5.0), sigma=0.0,
               fn_analytic=_atom)


def test_condition_integral_divergence_error():
    # a distribution with an atom: |phi| does not decay at all, so the
    # condition integral would diverge; such a CharFn is refused as it is
    # built, before the integral can be asked for
    with pytest.raises(ValueError, match="asymptote"):
        theorem4_condition_integral(
            CharFn(fn=_atom, horizon=0.05, strip_im=(-5.0, 5.0), sigma=0.0,
                   fn_analytic=_atom))


def test_condition_integral_drifting_decay_diverges():
    # no decay at all (an atom), and a decay power that keeps falling
    # (1/log v): neither has a closed-form asymptote, so neither CharFn can
    # be built for the condition integral
    def slow_fn(z):
        return 1.0 / np.log(np.e + np.abs(z))
    for fn in (_atom, slow_fn):
        with pytest.raises(ValueError, match="asymptote"):
            CharFn(fn=fn, horizon=0.05, strip_im=(-5.0, 5.0), sigma=0.0,
                   fn_analytic=fn)


def test_replaced_pure_jump_char_fn_keeps_its_asymptote(vg_mmm):
    # a CharFn with swapped fn and fn_analytic, as the verify negative
    # control builds it, still constructs on benchmark variance gamma
    phi = char_fn(vg_mmm, HORIZON)
    swapped = dataclasses.replace(phi, fn=_atom, fn_analytic=_atom)
    assert swapped.fn is _atom and swapped.asymptote is phi.asymptote


def test_condition_integral_vg_one_day_is_finite(vg_mmm):
    # |phi(v - 2i)| decays like v^(-2 C tau) with 2 C tau = 0.037: slow but
    # integrable, so the closed-form tail must close the integral
    phi = char_fn(vg_mmm, 1.0 / 365.0)
    res = theorem4_condition_integral(phi)
    ref = condition_integral_reference(phi)
    assert type(res.tail_estimate) is float
    assert abs(res.total - ref) <= 1e-12 * ref + res.err_est
    # the reference's total behind bound_t4 of tests/golden/sweep_vg_1d.csv;
    # a power fitted over the last two decades to 1e8 gave 30.3156242721594
    assert res.total == pytest.approx(30.3156242666018, rel=1e-12)


def test_condition_integral_small_stable_power_is_finite():
    # admissible VG (C, G, M) = (0.5, 5, 7) at one day: the decay power
    # 2 C tau = 0.00274 is small, so the tail past the head nodes holds 98%
    # of the integral and must match the reference
    phi = char_fn(to_mmm(vg_model(VgParams(0.5, 5.0, 7.0))), 1.0 / 365.0)
    res = theorem4_condition_integral(phi)
    ref = condition_integral_reference(phi)
    assert res.decay_power == pytest.approx(1.0 / 365.0, rel=1e-6)
    assert abs(res.total - ref) <= 1e-12 * ref + res.err_est


@pytest.mark.parametrize("family", ["merton", "vg"])
def test_condition_integral_makes_one_array_cumulant_call(
        family, request, monkeypatch):
    # the head nodes in one array; the VG tail needs no phi at all
    phi = char_fn(request.getfixturevalue(f"{family}_mmm"), 0.05)
    seen = []

    def counted(model, z, check_strip=True):
        seen.append(isinstance(z, np.ndarray) and z.size > 1)
        return mmm_cumulant(model, z, check_strip)

    monkeypatch.setattr(fourier, "mmm_cumulant", counted)
    theorem4_condition_integral(phi)
    assert seen == [True]


def _mid_band(sigma, measure):
    """The model with mu_s at the middle of (-(sigma^2 + C2), 0]."""
    probe = LevyModel(mu=0.0, sigma=sigma, measure=measure)
    mu = -compute_mu_s(probe) - 0.5 * (sigma**2 + sum(c2_split(probe)))
    return to_mmm(LevyModel(mu=mu, sigma=sigma, measure=measure))


_HORIZONS = st.floats(math.log(1.0 / 365.0), math.log(5.0)).map(math.exp)


def _check_against_reference(phi):
    res = theorem4_condition_integral(phi)
    ref = condition_integral_reference(phi)
    assert abs(res.total - ref) <= 1e-12 * ref + res.err_est
    assert res.err_est <= 1e-12 * res.total
    return res


# G and M run past 409.6, where the asymptote's series still diverges at
# v = _V_MAX and the tail must start further out
@settings(max_examples=20, deadline=None, derandomize=True)
@given(c=st.floats(0.1, 20.0), g=st.floats(1.0, 1500.0),
       m=st.floats(4.05, 1500.0), tau=_HORIZONS)
def test_condition_integral_matches_reference_vg(c, g, m, tau):
    phi = char_fn(_mid_band(0.0, VgMeasure(c, g, m)), tau)
    res = _check_against_reference(phi)
    assert res.decay_power == pytest.approx(2.0 * c * tau, rel=1e-12)


# Merton over the usual calibrated ranges; near-lattice jumps beyond them
# need narrower panels than the fixed ones (see the next test)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(sigma=st.floats(0.05, 0.5), gamma=st.floats(0.01, 2.0),
       m=st.floats(-0.3, 0.3), delta=st.floats(0.05, 0.5), tau=_HORIZONS)
def test_condition_integral_matches_reference_merton(sigma, gamma, m, delta,
                                                     tau):
    phi = char_fn(_mid_band(sigma, MertonMeasure(gamma, m, delta)), tau)
    assert _check_against_reference(phi).decay_power == math.inf


def test_condition_integral_near_lattice_jumps_miss_accuracy_limit():
    # 25 jumps of almost exactly +0.5 over the horizon, sigma = 0.01: |phi|
    # keeps peaking every 4 pi in v, too sharply for 24-wide panels; the
    # total is off by about 1e-3 relative, and err_est says so
    phi = char_fn(_mid_band(0.01, MertonMeasure(5.0, 0.5, 0.01)), 5.0)
    with pytest.raises(AccuracyError, match="accuracy limit"):
        theorem4_condition_integral(phi)


@pytest.mark.parametrize("tau", [1.0 / 365.0, 0.117, 1.43])
def test_condition_integral_vg_past_asymptote_radius(tau):
    # kappa = 0.2, delta = 0.005: G = M = 632, so the asymptote diverges at
    # v = _V_MAX; the head must reach past it before the series takes over
    p = vg_from_kappa(0.2, 0.0, 0.005)
    phi = char_fn(_mid_band(0.0, VgMeasure(p.c_par, p.g_par, p.m_par)), tau)
    _check_against_reference(phi)


def test_condition_integral_refuses_radius_past_node_cap():
    # G = M = 1e6: the head stops at _TAIL_START_MAX, where the series still
    # diverges, so the total misses its accuracy limit
    phi = char_fn(_mid_band(0.0, VgMeasure(5.0, 1e6, 1e6)), 0.1)
    with pytest.raises(AccuracyError, match="accuracy limit"):
        theorem4_condition_integral(phi)


def test_condition_integral_err_est_covers_an_early_tail_start(monkeypatch):
    # started at _V_MAX, the series for M = 632 is still short of its
    # radius: err_est must cover the error there or refuse the total
    monkeypatch.setattr(fourier, "_TAIL_REACH", 0.0)
    near = char_fn(_mid_band(0.0, VgMeasure(200.0, 50.0, 632.0)), 0.1)
    res = theorem4_condition_integral(near)
    ref = condition_integral_reference(near)
    assert abs(res.total - ref) > 1e-12 * ref
    assert abs(res.total - ref) <= res.err_est <= 1e-5 * res.total
    far = char_fn(_mid_band(0.0, VgMeasure(5.0, 632.0, 632.0)), 0.1)
    with pytest.raises(AccuracyError, match="accuracy limit"):
        theorem4_condition_integral(far)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_fourier_config_validation():
    with pytest.raises(ValueError):
        FourierConfig(alpha=1.0)
    with pytest.raises(ValueError):
        FourierConfig(alpha=2.5)


# ---------------------------------------------------------------------------
# the scalar memo of char_fn
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chi", [1.0, 2.5], ids=["atm", "osc"])
@pytest.mark.parametrize("family", ["merton", "vg"])
def test_transforms_of_one_strike_evaluate_each_point_once(
        family, chi, request, monkeypatch, cfg):
    # the cos/sin pair of the oscillatory rule, the re/im pair of the
    # contour and the three kinds of one strike share phi's scalar points;
    # each kind's integrand is evaluated once per point too, across those
    # pairs and across the head and the tail that meet at _V_MAX
    mmm = request.getfixturevalue(f"{family}_mmm")
    phi = char_fn(mmm, 0.05)
    seen = []
    kind_seen = []
    kind_psi = fourier._kind_psi

    def counted(model, z, check_strip=True):
        if np.ndim(z) == 0:
            seen.append((repr(complex(z)), check_strip))
        return mmm_cumulant(model, z, check_strip)

    def kind_counted(kind, alpha, iv, phi_v, model, check=True):
        if np.ndim(iv) == 0:
            kind_seen.append((kind, repr(complex(iv)), check))
        return kind_psi(kind, alpha, iv, phi_v, model, check)

    monkeypatch.setattr(fourier, "mmm_cumulant", counted)
    monkeypatch.setattr(fourier, "_kind_psi", kind_counted)
    for kind in ("i1", "i2", "tail"):
        transform(kind, phi, chi, cfg, model=mmm)
    assert seen and len(seen) == len(set(seen))
    assert {k for k, _, _ in kind_seen} == {"i1", "i2", "tail"}
    assert len(kind_seen) == len(set(kind_seen))


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
