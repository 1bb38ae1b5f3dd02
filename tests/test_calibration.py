import math
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from levyhedge import FourierConfig, call_price, char_fn, to_mmm
from levyhedge.benchmarks import SPOT, merton_benchmark, vg_benchmark
from levyhedge.calibration import (
    _FAMILIES,
    CalibrationResult,
    Quote,
    QuoteSet,
    _cumulant_grad,
    _prices_for,
    calibrate,
    constraint_report,
    read_quotes,
    rmse,
    write_quotes,
    write_result,
)
from levyhedge.fourier import call_prices
from levyhedge.levy_core import mmm_cumulant
from levyhedge.models import (
    MertonParams,
    VgParams,
    build_model,
    merton_model,
    vg_from_kappa,
    vg_model,
    vg_to_kappa,
)
from levyhedge.oracle_mc import McConfig, price_from_sample, simulate_log_returns
from test_golden import benchmark_start

EXPIRIES = [30 / 365, 58 / 365, 86 / 365, 149 / 365, 240 / 365, 275 / 365,
            331 / 365]
MONEYNESS = [0.85, 0.88, 0.92, 0.95, 0.97, 0.99, 1.005, 1.02, 1.05, 1.08,
             1.12, 1.15]
# the benchmark quote sets: 80 quotes per family, priced by the adaptive
# call_price at the benchmark parameters
GOLDEN = Path(__file__).resolve().parent / "golden"


def synth_quotes(params, cfg, n_exp=7, per_exp=12) -> QuoteSet:
    model = to_mmm(merton_model(params) if isinstance(params, MertonParams)
                   else vg_model(params))
    quotes = []
    for T in EXPIRIES[:n_exp]:
        strikes = SPOT * np.asarray(MONEYNESS[:per_exp])
        (prices,) = call_prices(model, SPOT, [T], [strikes], cfg)
        for K, p in zip(strikes, prices):
            quotes.append(Quote(T, float(K), float(p)))
    return QuoteSet(spot=SPOT, quotes=tuple(quotes),
                    valuation_date=date(2016, 4, 20))


# ---------------------------------------------------------------------------
# quote file I/O
# ---------------------------------------------------------------------------

def test_quote_roundtrip(tmp_path, merton_params, cfg):
    qs = synth_quotes(merton_params, cfg, n_exp=2, per_exp=4)
    path = tmp_path / "quotes.csv"
    write_quotes(path, qs)
    back = read_quotes(path)
    assert back.spot == qs.spot
    assert back.valuation_date == qs.valuation_date
    assert back.quotes == qs.quotes


def test_read_quotes_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_quotes(path)


def test_read_quotes_requires_header_and_spot(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# spot = 100\n1.0,95,7.2\n")
    with pytest.raises(ValueError, match="header"):
        read_quotes(path)
    path.write_text("expiry,strike,mid\n1.0,95,7.2\n")
    with pytest.raises(ValueError, match="spot"):
        read_quotes(path)


def test_quote_validation():
    with pytest.raises(ValueError):
        Quote(expiry=-1.0, strike=100.0, mid=1.0)
    with pytest.raises(ValueError):
        QuoteSet(spot=100.0, quotes=())


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

def test_price_trivial_strikes(merton_mmm, cfg):
    phi = char_fn(merton_mmm, 0.25)
    lo = call_price(phi, 100.0, 1e-6, cfg)
    assert lo == pytest.approx(100.0, abs=1e-5)
    hi = call_price(phi, 100.0, 1e5, cfg)
    assert hi == pytest.approx(0.0, abs=1e-8)


def test_price_monotone_and_in_band(vg_mmm, cfg):
    phi = char_fn(vg_mmm, 0.25)
    prev = None
    for K in np.linspace(1700, 2600, 10):
        p = call_price(phi, SPOT, float(K), cfg)
        assert max(SPOT - K, 0.0) - 1e-6 <= p <= SPOT
        if prev is not None:
            assert p <= prev + 1e-9
        prev = p


def test_price_against_mc(merton_mmm, cfg):
    T = 58 / 365
    K = 2100.0
    ref = call_price(char_fn(merton_mmm, T), SPOT, K, cfg)
    sample = simulate_log_returns(merton_mmm, McConfig(n_paths=400_000, seed=5,
                                                       horizon=T))
    est = price_from_sample(sample, K / SPOT)
    assert abs(ref - SPOT * est.value) <= 3.0 * SPOT * est.se


def _bs_call(spot, strike, sigma, tau):
    sd = sigma * math.sqrt(tau)
    d1 = math.log(spot / strike) / sd + 0.5 * sd
    return spot * ndtr(d1) - strike * ndtr(d1 - sd)


def test_fast_grid_matches_reference(bs_mmm, merton_mmm, vg_mmm):
    # the engine's calibration prices carry no bias: within 1e-9 x spot of
    # the Black-Scholes closed form and of the adaptive call_price on every
    # damping line, from one day to five years, chi in [0.3, 3]
    tol = 1e-9 * SPOT
    strikes = SPOT * np.geomspace(0.3, 3.0, 15)
    taus = [1 / 365, 0.05, 0.3, 1.0, 5.0]
    for alpha in (1.25, 1.75, 2.0):
        cfg = FourierConfig(alpha=alpha)
        fast = call_prices(bs_mmm, SPOT, taus, [strikes] * len(taus), cfg)
        for T, prices in zip(taus, fast):
            phi = char_fn(bs_mmm, T)
            for K, p in zip(strikes, prices):
                assert abs(p - _bs_call(SPOT, K, 0.2, T)) <= tol
                assert abs(p - call_price(phi, SPOT, K, cfg)) <= tol
    cfg = FourierConfig()
    strikes = SPOT * np.asarray([0.85, 0.97, 0.999, 1.0, 1.02, 1.15])
    for mmm in (merton_mmm, vg_mmm):
        taus = [30 / 365, 331 / 365]
        fast = call_prices(mmm, SPOT, taus, [strikes] * 2, cfg)
        for T, prices in zip(taus, fast):
            phi = char_fn(mmm, T)
            ref = [call_price(phi, SPOT, float(K), cfg) for K in strikes]
            assert np.max(np.abs(prices - np.asarray(ref))) <= tol


# ---------------------------------------------------------------------------
# rmse
# ---------------------------------------------------------------------------

def test_rmse_self_consistency(merton_params, cfg):
    qs = synth_quotes(merton_params, cfg, n_exp=3, per_exp=6)
    assert rmse(merton_params, qs, cfg) <= 1e-8


def test_rmse_single_quote_definition(merton_params, cfg):
    base = synth_quotes(merton_params, cfg, n_exp=1, per_exp=1)
    q = base.quotes[0]
    shifted = QuoteSet(spot=base.spot,
                       quotes=(Quote(q.expiry, q.strike, q.mid + 2.0),))
    assert rmse(merton_params, shifted, cfg) == pytest.approx(2.0, abs=1e-6)


def test_rmse_deterministic(vg_params, cfg):
    qs = synth_quotes(vg_params, cfg, n_exp=2, per_exp=5)
    assert rmse(vg_params, qs, cfg) == rmse(vg_params, qs, cfg)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_merton_synthetic_recovery(merton_params, cfg):
    qs = synth_quotes(merton_params, cfg)
    p = merton_params
    init = MertonParams(mu=p.mu, sigma=p.sigma * 1.2, gamma=p.gamma * 0.8,
                        m=p.m * 1.2, delta=p.delta * 0.8)
    res = calibrate(qs, init, cfg)
    assert res.rmse < 0.1
    assert res.converged
    assert res.constraint_report.ok
    got = res.params
    assert got.sigma == pytest.approx(p.sigma, rel=0.05)
    assert got.delta == pytest.approx(p.delta, rel=0.05)
    assert got.gamma == pytest.approx(p.gamma, rel=0.15)
    assert got.m == pytest.approx(p.m, rel=0.15)


def test_vg_synthetic_recovery(vg_params, cfg):
    qs = synth_quotes(vg_params, cfg)
    kappa, m, delta = vg_to_kappa(vg_params)
    init = vg_from_kappa(kappa * 1.2, m * 1.1, delta * 0.92)
    res = calibrate(qs, init, cfg)
    assert res.rmse < 0.1
    assert res.converged
    assert res.constraint_report.ok
    got = res.params
    assert got.c_par == pytest.approx(vg_params.c_par, rel=0.10)
    assert got.g_par == pytest.approx(vg_params.g_par, rel=0.10)
    assert got.m_par == pytest.approx(vg_params.m_par, rel=0.10)


def test_infeasible_init_is_projected(merton_params, cfg):
    qs = synth_quotes(merton_params, cfg, n_exp=2, per_exp=5)
    p = merton_params
    bad = MertonParams(mu=4.0073, sigma=p.sigma, gamma=p.gamma, m=p.m,
                       delta=p.delta)  # mu_s > 0
    assert not constraint_report(bad).ok
    res = calibrate(qs, bad, cfg, max_iter=150)
    assert res.constraint_report.ok
    # clamping into the box plus the fit beats a feasible but detuned
    # reference
    detuned = MertonParams(mu=p.mu - 0.002, sigma=p.sigma * 1.5,
                           gamma=p.gamma, m=p.m, delta=p.delta)
    assert constraint_report(detuned).ok
    assert res.rmse < rmse(detuned, qs, cfg)


@pytest.fixture(scope="module")
def vg_fit(vg_params, cfg):
    qs = synth_quotes(vg_params, cfg, n_exp=2, per_exp=5)
    kappa, m, delta = vg_to_kappa(vg_params)
    init = vg_from_kappa(kappa * 1.2, m, delta)
    assert constraint_report(init).ok
    return qs, init, calibrate(qs, init, cfg, max_iter=60)


def test_calibrate_reports_rmse_of_returned_params(vg_fit, cfg):
    qs, init, res = vg_fit
    assert res.rmse == rmse(res.params, qs, cfg)
    assert res.rmse <= rmse(init, qs, cfg)


def test_vg_fit_record_holds_plain_floats(vg_fit, tmp_path):
    _, _, res = vg_fit
    path = tmp_path / "vg.txt"
    write_result(path, res)
    text = path.read_text()
    assert "np." not in text
    rec = dict(line.split(" = ", 1) for line in text.splitlines())
    for key, val in dict(vars(res.params), rmse=res.rmse).items():
        assert float(rec[key]) == val


def test_fit_reports_how_it_stopped(vg_fit):
    _, _, res = vg_fit
    assert res.nfev >= res.njev > 0
    assert res.iterations > 0
    assert res.converged == (res.status > 0)
    assert "termination" in res.message


def test_vg_fit_escapes_the_second_minimum(cfg):
    # over D = M - G the RMSE has a second minimum of about 1.12e-5 at
    # D ~ 1.006, a saddle near D = 2 and the truth at D = 2.97, 0.03 from
    # the open edge of D's box; from the e^0.5 start D lies below 2, and
    # only the start at 3/4 of the box reaches the truth
    qs = read_quotes(GOLDEN / "quotes_vg.csv")
    init = benchmark_start("vg", 0.5)
    assert init.m_par - init.g_par < 2.0
    res = calibrate(qs, init, cfg)
    assert abs(res.params.m_par - res.params.g_par - 2.97) <= 1e-3
    assert res.rmse <= 1e-9
    assert res.converged


@pytest.mark.parametrize("family", ["merton", "vg"])
@pytest.mark.parametrize("scale", [0.0, 0.05])
def test_jacobian_matches_central_differences(family, scale, cfg):
    # at the truth and at the benchmark start, each analytic column of the
    # residuals' Jacobian in box coordinates against central differences
    qs = read_quotes(GOLDEN / f"quotes_{family}.csv")
    init = benchmark_start(family, scale)
    box = _FAMILIES[type(init)]
    x = box.to_box(init)
    _, jac = _prices_for(box.to_params(x), qs, cfg, dpsi=box.dpsi)
    for q in range(x.size):
        # rounding limits the weakly identified Merton f column below ~1e-4
        h = 1e-4 * max(1.0, abs(x[q]))
        step = np.eye(x.size)[q] * h
        fd = (_prices_for(box.to_params(x + step), qs, cfg)
              - _prices_for(box.to_params(x - step), qs, cfg)) / (2.0 * h)
        assert np.linalg.norm(jac[:, q] - fd) <= 1e-6 * np.linalg.norm(jac[:, q]), q


@pytest.mark.parametrize("family", ["merton", "vg"])
@pytest.mark.parametrize("scale", [0.0, 0.05])
def test_prices_beside_the_jacobian_are_bit_identical(family, scale, cfg):
    # the Jacobian rides along without moving a bit of the prices, and the
    # cumulant sampled with its base moments is the plain cumulant, on the
    # head and on both contours
    qs = read_quotes(GOLDEN / f"quotes_{family}.csv")
    init = benchmark_start(family, scale)
    cache: dict = {}
    prices = _prices_for(init, qs, cfg, cache)
    with_jac, _ = _prices_for(init, qs, cfg, cache, _FAMILIES[type(init)].dpsi)
    assert np.array_equal(with_jac, prices)
    model = to_mmm(build_model(init))
    paths = cache["nodes"].paths
    assert len(paths) == (1 if family == "merton" else 3)
    for name, v, _, _, _ in paths:
        z = v - 1j * cfg.alpha
        psi, _, _ = mmm_cumulant(model, z, name == "head", moments=True)
        assert np.array_equal(psi, mmm_cumulant(model, z, name == "head"))


@pytest.mark.parametrize("family", ["merton", "vg"])
def test_jacobian_reuses_the_base_moments_of_the_prices(family, cfg,
                                                        monkeypatch):
    # Psi* evaluates g(w) and g(w + 1) on each node path, and the Jacobian
    # takes them from there: two array evaluations of g per path
    qs = read_quotes(GOLDEN / f"quotes_{family}.csv")
    init = benchmark_start(family, 0.05)
    dpsi = _FAMILIES[type(init)].dpsi
    cache: dict = {}
    _prices_for(init, qs, cfg, cache, dpsi)
    measure = type(build_model(init).measure)
    exp_moment = measure.exp_moment
    calls = []

    def counted(self, w, *args, **kwargs):
        if np.ndim(w):
            calls.append(np.shape(w))
        return exp_moment(self, w, *args, **kwargs)

    monkeypatch.setattr(measure, "exp_moment", counted)
    _prices_for(init, qs, cfg, cache, dpsi)
    assert len(calls) == 2 * len(cache["nodes"].paths)


@pytest.mark.parametrize("params", [merton_benchmark(), vg_benchmark()],
                         ids=["merton", "vg"])
def test_compact_cumulant_matches_mmm_cumulant(params, cfg):
    # the compact form of Psi* that the Jacobian differentiates, on head
    # points of the damping line and, for the pure-jump model, on both
    # rotated contours (the engine samples a diffusive model on its head
    # alone)
    model = to_mmm(build_model(params))
    v = np.linspace(0.0, 409.6, 97)
    if model.sigma == 0.0:
        s = np.geomspace(0.5, 2.0e5, 60)
        v = np.concatenate([v, 409.6 - 1j * s, 409.6 + 1j * s])
    z = v - 1j * cfg.alpha
    grad = model.measure.exp_moment_grad
    ref, *moments = mmm_cumulant(model, z, check_strip=False, moments=True)
    psi = _cumulant_grad(model, z, moments, grad, beta_follows=False)[0]
    assert np.max(np.abs(psi - ref) / np.abs(ref)) <= 1e-14


def test_calibrate_validates_inputs(merton_params, cfg):
    qs = synth_quotes(merton_params, cfg, n_exp=1, per_exp=3)
    with pytest.raises(TypeError, match="unsupported"):
        calibrate(qs, {"family": "heston"}, cfg)


def test_write_result(tmp_path, merton_params, cfg):
    rep = constraint_report(merton_params)
    res = CalibrationResult(params=merton_params, rmse=0.05, iterations=10,
                            converged=True, constraint_report=rep, status=2,
                            message="`ftol` termination condition is satisfied.",
                            nfev=11, njev=9)
    path = tmp_path / "result.txt"
    write_result(path, res)
    text = path.read_text()
    assert "family = merton" in text
    assert "rmse = 0.05" in text
    assert "constraint_ok = True" in text
    assert "residual_evaluations = 11" in text
    assert "jacobian_evaluations = 9" in text
    assert "status = 2" in text
    assert "stop = `ftol` termination condition is satisfied." in text


def test_vg_constraint_band():
    # admissibility is exactly the band 1 <= M - G < 3
    ok = constraint_report(VgParams(c_par=5.0, g_par=30.0, m_par=32.0))
    assert ok.ok
    too_sym = constraint_report(VgParams(c_par=5.0, g_par=30.0, m_par=30.5))
    assert not too_sym.ok  # M - G < 1: positive drift
    too_skew = constraint_report(VgParams(c_par=5.0, g_par=30.0, m_par=33.5))
    assert not too_skew.ok  # M - G > 3: drift below the lower barrier
