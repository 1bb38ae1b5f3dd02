from datetime import date

import numpy as np
import pytest

from levyhedge import to_mmm
from levyhedge.benchmarks import SPOT
from levyhedge.calibration import (
    CalibrationResult,
    Quote,
    QuoteSet,
    _PricingGrid,
    calibrate,
    constraint_report,
    model_call_price,
    read_quotes,
    rmse,
    write_quotes,
    write_result,
)
from levyhedge.models import (
    MertonParams,
    VgParams,
    merton_model,
    vg_from_kappa,
    vg_model,
    vg_to_kappa,
)
from levyhedge.oracle_mc import McConfig, mc_price

EXPIRIES = [30 / 365, 58 / 365, 86 / 365, 149 / 365, 240 / 365, 275 / 365,
            331 / 365]
MONEYNESS = [0.85, 0.88, 0.92, 0.95, 0.97, 0.99, 1.005, 1.02, 1.05, 1.08,
             1.12, 1.15]


def synth_quotes(params, cfg, n_exp=7, per_exp=12) -> QuoteSet:
    model = to_mmm(merton_model(params) if isinstance(params, MertonParams)
                   else vg_model(params))
    quotes = []
    for T in EXPIRIES[:n_exp]:
        grid = _PricingGrid(model, T, cfg)
        strikes = SPOT * np.asarray(MONEYNESS[:per_exp])
        for K, p in zip(strikes, grid.prices(SPOT, strikes)):
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
    T = 0.25
    lo = model_call_price(merton_mmm, None, 100.0, 1e-6, T, cfg)
    assert lo == pytest.approx(100.0, abs=1e-5)
    hi = model_call_price(merton_mmm, None, 100.0, 1e5, T, cfg)
    assert hi == pytest.approx(0.0, abs=1e-8)


def test_price_monotone_and_in_band(vg_mmm, cfg):
    T = 0.25
    prev = None
    for K in np.linspace(1700, 2600, 10):
        p = model_call_price(vg_mmm, None, SPOT, float(K), T, cfg)
        assert max(SPOT - K, 0.0) - 1e-6 <= p <= SPOT
        if prev is not None:
            assert p <= prev + 1e-9
        prev = p


def test_price_against_mc(merton_mmm, cfg):
    T = 58 / 365
    K = 2100.0
    ref = model_call_price(merton_mmm, None, SPOT, K, T, cfg)
    est = mc_price(merton_mmm, SPOT, K, McConfig(n_paths=400_000, seed=5,
                                                 horizon=T))
    assert abs(ref - est.value) <= 3.0 * est.se


def test_fast_grid_matches_reference(merton_mmm, vg_mmm, cfg):
    strikes = SPOT * np.asarray([0.85, 0.97, 0.999, 1.0, 1.02, 1.15])
    for mmm in (merton_mmm, vg_mmm):
        for T in (30 / 365, 331 / 365):
            grid = _PricingGrid(mmm, T, cfg)
            fast = grid.prices(SPOT, strikes)
            ref = [model_call_price(mmm, None, SPOT, float(K), T, cfg)
                   for K in strikes]
            assert np.max(np.abs(fast - np.asarray(ref))) < 1e-3


def test_price_horizon_mismatch_raises(merton_mmm, cfg):
    from levyhedge import char_fn
    phi = char_fn(merton_mmm, 0.5)
    with pytest.raises(ValueError, match="horizon"):
        model_call_price(merton_mmm, phi, 100.0, 100.0, 0.25, cfg)


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
    res = calibrate("merton", qs, init, cfg)
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
    res = calibrate("vg", qs, init, cfg)
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
    res = calibrate("merton", qs, bad, cfg, max_iter=150)
    assert res.constraint_report.ok
    # projection plus optimization beats a feasible but detuned reference
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
    return qs, init, calibrate("vg", qs, init, cfg, max_iter=60)


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


def test_calibrate_validates_inputs(merton_params, vg_params, cfg):
    qs = synth_quotes(merton_params, cfg, n_exp=1, per_exp=3)
    with pytest.raises(ValueError, match="family"):
        calibrate("heston", qs, merton_params, cfg)
    with pytest.raises(TypeError):
        calibrate("merton", qs, vg_params, cfg)


def test_write_result(tmp_path, merton_params, cfg):
    rep = constraint_report(merton_params)
    res = CalibrationResult(params=merton_params, rmse=0.05, iterations=10,
                            converged=True, constraint_report=rep)
    path = tmp_path / "result.txt"
    write_result(path, res)
    text = path.read_text()
    assert "family = merton" in text
    assert "rmse = 0.05" in text
    assert "constraint_ok = True" in text


def test_vg_constraint_band():
    # admissibility is exactly the band 1 <= M - G < 3
    ok = constraint_report(VgParams(c_par=5.0, g_par=30.0, m_par=32.0))
    assert ok.ok
    too_sym = constraint_report(VgParams(c_par=5.0, g_par=30.0, m_par=30.5))
    assert not too_sym.ok  # M - G < 1: positive drift
    too_skew = constraint_report(VgParams(c_par=5.0, g_par=30.0, m_par=33.5))
    assert not too_skew.ok  # M - G > 3: drift below the lower barrier
