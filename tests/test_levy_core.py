import math

import numpy as np
import pytest
from scipy.integrate import quad

from levyhedge import (
    AssumptionError,
    LevyModel,
    StripError,
    ZeroMeasure,
    c2_split,
    compute_mu_s,
    mmm_cumulant,
    to_mmm,
)
from levyhedge.models import MertonParams, VgMeasure, build_model, merton_model
from quadrature import (
    mmm_cumulant_quad,
    quad_exp_moment,
    quad_x_exp_moment,
    validate,
)


def bs_model(sigma=0.2, mu=None):
    if mu is None:
        mu = -0.5 * sigma**2
    return LevyModel(mu=mu, sigma=sigma, measure=ZeroMeasure())


# ---------------------------------------------------------------------------
# mu_s
# ---------------------------------------------------------------------------

def test_mu_s_vanishes_without_diffusion_or_jumps():
    model = LevyModel(mu=0.0, sigma=0.0, measure=ZeroMeasure())
    assert compute_mu_s(model) == 0.0


def test_mu_s_vanishes_at_martingale_drift():
    assert compute_mu_s(bs_model(0.3)) == pytest.approx(0.0, abs=1e-16)


def test_mu_s_merton_closed_form_vs_quadrature(merton_params):
    p = merton_params
    model = merton_model(p)
    # closed form of the jump part: gamma (e^{m + delta^2/2} - 1 - m)
    expected = p.mu + 0.5 * p.sigma**2 + p.gamma * (
        math.exp(p.m + 0.5 * p.delta**2) - 1.0 - p.m)
    got = compute_mu_s(model)
    assert got == pytest.approx(expected, rel=1e-12)
    # independent oracle: adaptive quadrature of (e^x - 1 - x) nu(dx)
    dens = model.measure.density
    oracle = quad(lambda x: (np.exp(x) - 1 - x) * dens(x), -2.0, 2.0,
                  epsabs=1e-15)[0]
    assert got == pytest.approx(p.mu + 0.5 * p.sigma**2 + oracle, rel=1e-11)


@pytest.mark.parametrize("m_big", [0.5, 3.5, 4.0])
def test_model_refuses_measure_without_fourth_exponential_moment(m_big):
    # M <= 4: e^{4x} is not nu-integrable on x > 0, so C2+ (M <= 2), mu_s
    # (M <= 1) or the large-moneyness brace (M <= 4) diverges
    with pytest.raises(ValueError, match=f"moments up to .* w_hi = {m_big}$"):
        LevyModel(mu=0.0, sigma=0.1, measure=VgMeasure(1.0, 5.0, m_big))


# ---------------------------------------------------------------------------
# c2_split
# ---------------------------------------------------------------------------

def test_c2_split_zero_measure():
    assert c2_split(bs_model()) == (0.0, 0.0)
    assert ZeroMeasure().split_moment(2.0) == (0.0, 0.0)


def test_c2_split_refuses_negative_squared_moment():
    # a closed form whose (e^x - 1)^2 moment comes out negative is a fault,
    # reported as the typed AssumptionError the CLI maps to exit 2
    class Faulty(ZeroMeasure):
        def split_moment(self, w):
            return -w**2, -w**2

    with pytest.raises(AssumptionError, match="negative squared moment"):
        c2_split(LevyModel(mu=0.0, sigma=0.2, measure=Faulty()))


def test_c2_split_merton_against_quadrature(merton_params):
    model = merton_model(merton_params)
    c2p, c2m = c2_split(model)
    dens = model.measure.density
    qp = quad(lambda x: (np.exp(x) - 1) ** 2 * dens(x), 0, 2, epsabs=1e-16)[0]
    qm = quad(lambda x: (np.exp(x) - 1) ** 2 * dens(x), -2, 0, epsabs=1e-16)[0]
    assert c2p == pytest.approx(qp, rel=1e-9, abs=1e-14)
    assert c2m == pytest.approx(qm, rel=1e-9, abs=1e-14)


# ---------------------------------------------------------------------------
# to_mmm
# ---------------------------------------------------------------------------

def test_to_mmm_is_identity_for_martingale_black_scholes():
    model = bs_model(0.25)
    mmm = to_mmm(model)
    assert mmm.xi == 0.0
    assert mmm.beta == 0.0
    assert mmm.drift_star == model.mu
    assert mmm.c2 == 0.0


def test_to_mmm_rejects_positive_mu_s():
    with pytest.raises(AssumptionError, match="mu_s"):
        to_mmm(bs_model(0.2, mu=0.1))


def test_to_mmm_rejects_quoted_merton_drift():
    # the drift quoted alongside the benchmark jump parameters violates
    # the constraint 0 >= mu_s by four orders of magnitude
    p = MertonParams(mu=4.0073, sigma=0.0435, gamma=0.0054, m=-0.0697,
                     delta=0.0889)
    with pytest.raises(AssumptionError) as exc:
        to_mmm(merton_model(p))
    assert "4.008" in str(exc.value)


def test_to_mmm_rejects_too_negative_mu_s(merton_params):
    p = merton_params
    bad = MertonParams(mu=p.mu - 1.0, sigma=p.sigma, gamma=p.gamma, m=p.m,
                       delta=p.delta)
    with pytest.raises(AssumptionError):
        to_mmm(merton_model(bad))


def test_mmm_constants_consistency(merton_mmm):
    m = merton_mmm
    assert m.c2 == pytest.approx(m.c2_plus + m.c2_minus, rel=1e-12)
    assert m.xi == pytest.approx(m.mu_s * m.sigma / (m.sigma**2 + m.c2), rel=1e-12)
    assert 0.0 >= m.mu_s > -(m.sigma**2 + m.c2)


def test_theta_below_one_on_support(merton_mmm, vg_mmm, rng):
    for m in (merton_mmm, vg_mmm):
        x = rng.uniform(-6, 6, 200)
        x = x[x != 0]
        assert np.all(m.theta(x) < 1.0)


# ---------------------------------------------------------------------------
# cumulant: normalization, martingale, symmetry, quadrature oracle
# ---------------------------------------------------------------------------

def test_cumulant_normalization_and_martingale(merton_mmm, vg_mmm, bs_mmm):
    for m in (merton_mmm, vg_mmm, bs_mmm):
        assert abs(mmm_cumulant(m, 0.0)) <= 1e-10
        assert abs(mmm_cumulant(m, -1j)) <= 1e-10


def test_cumulant_conjugate_symmetry(merton_mmm, vg_mmm, rng):
    for m in (merton_mmm, vg_mmm):
        for v in rng.uniform(0.1, 50.0, 10):
            a = mmm_cumulant(m, v)
            b = mmm_cumulant(m, -v)
            assert b == pytest.approx(np.conj(a), rel=1e-12, abs=1e-15)


def test_cumulant_closed_vs_quadrature_random_strip_points(
        merton_mmm, vg_mmm, rng):
    for m in (merton_mmm, vg_mmm):
        lo, hi = m.strip()
        lo = max(lo, -2.0) + 0.05
        hi = min(hi, 0.0)
        for _ in range(20):
            z = complex(rng.uniform(-25, 25), rng.uniform(lo, hi))
            a = mmm_cumulant(m, z)
            b = mmm_cumulant_quad(m, z)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_cumulant_strip_violation(vg_mmm):
    lo, hi = vg_mmm.strip()
    with pytest.raises(StripError):
        mmm_cumulant(vg_mmm, 1.0 - 1j * (abs(lo) + 1.0))


@pytest.mark.parametrize("family", ["merton", "vg"])
def test_cumulant_evaluates_two_base_moments(family, request):
    # g(w) once and g(w + 1) at w = iz; g(1) is a constant of the model
    mmm = to_mmm(build_model(request.getfixturevalue(f"{family}_params")))
    base = mmm.measure.exp_moment
    calls = []

    def counted(w, *args, **kwargs):
        calls.append(w)
        return base(w, *args, **kwargs)

    mmm.measure.exp_moment = counted
    for z in (3.0 - 0.5j, np.linspace(-5.0, 5.0, 7) - 1.75j):
        calls.clear()
        mmm_cumulant(mmm, z)
        assert len(calls) == 2


def test_cumulant_vectorized_matches_scalar(merton_mmm, vg_mmm):
    # scalar points run on Python complex and cmath, arrays on numpy: one
    # formula each, which must agree on head points, on contour points past
    # the strip, and for the base moments
    head = np.array([0.5 - 1j, 3.0 - 0.2j, -7.0 - 1.9j, 0.0 - 1.75j])
    contour = 409.6 + np.array([-0.5j, -40.0j, 3.0j, 25.0j]) - 1.75j
    for mmm in (merton_mmm, vg_mmm):
        for zs, check in ((head, True), (contour, False)):
            vec = mmm_cumulant(mmm, zs, check_strip=check)
            for zi, vi in zip(zs, vec):
                scalar = mmm_cumulant(mmm, complex(zi), check_strip=check)
                assert type(scalar) is complex
                assert vi == pytest.approx(scalar, rel=1e-14)
        for ws in (1j * head, np.array([1.0, 2.0, 3.5])):
            vec = mmm.measure.exp_moment(ws)
            for wi, vi in zip(ws, vec):
                assert vi == pytest.approx(mmm.measure.exp_moment(wi.item()),
                                           rel=1e-14)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cumulant_scalar_overflow_is_non_finite(pure_jump_merton):
    # far off the real axis the Gaussian jump transform of pure-jump Merton
    # overflows: a scalar point gives numpy's non-finite value, as its
    # array element does, instead of raising OverflowError
    z = 409.6 - 1000.0j - 1.75j
    scalar = mmm_cumulant(pure_jump_merton, z, check_strip=False)
    (vec,) = mmm_cumulant(pure_jump_merton, np.array([z]), check_strip=False)
    assert not np.isfinite(scalar) and not np.isfinite(vec)


# ---------------------------------------------------------------------------
# closed-form moments against the quadrature oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["merton", "vg"])
def test_closed_form_moments_match_quadrature(family, request):
    measure = build_model(request.getfixturevalue(f"{family}_params")).measure
    for w in [1.0, 2.0, 0.5 + 3j, -1.0 + 10j]:
        a = measure.exp_moment(w)
        b = quad_exp_moment(measure, w)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), w
    assert measure.x_exp_moment(1.0) == pytest.approx(
        quad_x_exp_moment(measure, 1.0), rel=1e-9)
    assert measure.mean_jump() == pytest.approx(
        quad_x_exp_moment(measure, 0.0), rel=1e-9)
    validate(measure)


@pytest.mark.parametrize("family", ["merton", "vg"])
def test_split_moment_matches_quadrature(family, request):
    # the half-line moments, at the real w of C2+- and the brace, sum to
    # the whole-line one
    measure = build_model(request.getfixturevalue(f"{family}_params")).measure
    for w in (1.0, 2.0, 3.0, 4.0):
        pos, neg = measure.split_moment(w)
        assert type(pos) is float and type(neg) is float
        for a, region in ((pos, "pos"), (neg, "neg")):
            b = quad_exp_moment(measure, w, region)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), (w, region)
        assert pos + neg == pytest.approx(measure.exp_moment(w).real, rel=1e-13)


@pytest.mark.parametrize("family", ["merton", "vg"])
def test_t4_brace_matches_quadrature(family, request):
    # C2- + integral_0^inf e^{2x} (e^x - 1)^2 nu(dx), integrated directly
    mmm = to_mmm(build_model(request.getfixturevalue(f"{family}_params")))
    dens = mmm.measure.density
    brace = 0.0
    for a, b in mmm.measure.quad_panels(w_re=4.0):
        tilt = 2.0 if a >= 0 else 0.0       # the e^{2x} weight on x > 0 only
        brace += quad(lambda x: np.exp(tilt * x) * np.expm1(x) ** 2 * dens(x),
                      a, b, epsabs=1e-15, epsrel=1e-12, limit=200)[0]
    assert mmm.t4_brace == pytest.approx(brace, rel=1e-8)
    assert mmm.t4_brace > mmm.c2_minus


@pytest.mark.parametrize("m_big", [3.5, 4.5])
def test_vg_validate_agrees_with_quadrature(m_big):
    # the model's check w_hi = M > 4 is the (e^x - 1)^4 moment's strip
    measure = VgMeasure(1.0, 5.0, m_big)
    for check in (lambda: LevyModel(mu=0.0, sigma=0.0, measure=measure),
                  lambda: validate(measure)):
        if m_big > 4.0:
            check()
        else:
            with pytest.raises(ValueError, match="M must exceed 4|strip"):
                check()


def test_to_mmm_refuses_deterministic_model():
    # sigma = 0 and nu = 0 make 0 >= mu_s > -(sigma^2 + C2) empty: no drift,
    # not even mu_s = 0, passes the drift constraint
    for mu in (-0.01, 0.0, 0.01):
        with pytest.raises(AssumptionError, match="drift constraint"):
            to_mmm(LevyModel(mu=mu, sigma=0.0, measure=ZeroMeasure()))
