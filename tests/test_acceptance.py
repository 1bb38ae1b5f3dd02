"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line (run with -s to see them inline).

Criteria use the benchmark Merton and variance-gamma parameter sets, the
13-point moneyness grid 0.9037..1.1891, horizon 0.05, and the default
transform configuration (alpha 1.75, head over [0, 409.6]).
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from levyhedge import (
    FourierConfig,
    c2_split,
    call_price,
    char_fn,
    mmm_cumulant,
    to_mmm,
    transform,
)
from levyhedge.benchmarks import (
    HORIZON,
    SPOT,
    benchmark_chi_grid,
    bs_benchmark,
    merton_benchmark,
    vg_benchmark,
)
from levyhedge.calibration import Quote, QuoteSet, calibrate, rmse
from levyhedge.fourier import call_prices
from levyhedge.hedging import bound_t4_constant, sweep
from levyhedge.models import (
    MertonParams,
    merton_model,
    vg_from_kappa,
    vg_model,
    vg_to_kappa,
)
from levyhedge.oracle_mc import McConfig, estimates_from_sample, simulate_log_returns
from quadrature import mmm_cumulant_quad


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc} {suffix}"


@pytest.fixture(scope="module")
def setup():
    cfg = FourierConfig()
    merton = to_mmm(merton_model(merton_benchmark()))
    vg = to_mmm(vg_model(vg_benchmark()))
    return {
        "cfg": cfg,
        "merton": merton,
        "vg": vg,
        "phi_merton": char_fn(merton, HORIZON),
        "phi_vg": char_fn(vg, HORIZON),
        "chis": benchmark_chi_grid(),
    }


def test_criterion_1_martingale_normalization(setup):
    t0 = time.perf_counter()
    worst = 0.0
    for key in ("merton", "vg"):
        m = setup[key]
        worst = max(worst, abs(mmm_cumulant(m, 0.0)), abs(mmm_cumulant(m, -1j)))
    elapsed = time.perf_counter() - t0
    _report(1, "cumulant normalization and martingale identity",
            worst <= 1e-10 and elapsed < 1.0,
            f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_closed_forms_vs_quadrature(setup):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for key in ("merton", "vg"):
        m = setup[key]
        lo, hi = m.strip()
        for _ in range(20):
            z = complex(rng.uniform(-20, 20),
                        rng.uniform(max(lo, -2.0) + 0.05, 0.0))
            a, b = mmm_cumulant(m, z), mmm_cumulant_quad(m, z)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    # constants: closed forms against direct quadrature of the integrands
    mp = merton_benchmark()
    dens_m = setup["merton"].measure.density
    q = quad(lambda x: (np.exp(x) - 1) ** 2 * dens_m(x), -2.5, 0.0,
             epsabs=1e-16)[0]
    worst = max(worst, abs(c2_split(merton_model(mp))[1] - q) / q)
    dens_v = setup["vg"].measure.density
    qp = quad(lambda x: (np.exp(x) - 1) ** 2 * dens_v(x), 0.0, 2.0,
              epsabs=1e-15, limit=200)[0]
    qm = quad(lambda x: (np.exp(x) - 1) ** 2 * dens_v(x), -2.0, 0.0,
              epsabs=1e-15, limit=200)[0]
    worst = max(worst, abs(setup["vg"].c2_plus - qp) / qp)
    worst = max(worst, abs(setup["vg"].c2_minus - qm) / qm)
    elapsed = time.perf_counter() - t0
    _report(2, "closed forms agree with adaptive quadrature",
            worst <= 1e-8 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_alpha_independence(setup):
    t0 = time.perf_counter()
    alphas = (1.25, 1.5, 1.75, 2.0)
    worst = 0.0
    for key in ("merton", "vg"):
        m, phi = setup[key], setup["phi_" + key]
        for chi in setup["chis"]:
            v1 = [transform("i1", phi, chi, FourierConfig(alpha=a)).value
                  for a in alphas]
            v2 = [transform("i2", phi, chi, FourierConfig(alpha=a), model=m).value
                  for a in alphas]
            for vals in (v1, v2):
                scale = max(abs(np.mean(vals)), 1e-12)
                worst = max(worst, (max(vals) - min(vals)) / scale)
    elapsed = time.perf_counter() - t0
    _report(3, "transforms independent of the damping exponent",
            worst <= 1e-6 and elapsed < 30.0,
            f"worst pairwise rel spread {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_monte_carlo_agreement(setup):
    t0 = time.perf_counter()
    cfg = setup["cfg"]
    mcfg = McConfig(n_paths=1_000_000, seed=20160420, horizon=HORIZON)
    grid = [0.9037, 0.95, 1.0, 1.05, 1.1891]
    worst_z = 0.0
    for key in ("merton", "vg"):
        m, phi = setup[key], setup["phi_" + key]
        sample = simulate_log_returns(m, mcfg)
        floor = 1.0 / sample.n_paths
        for chi, at in zip(grid, estimates_from_sample(m, sample, grid).strikes):
            for want, e in ((transform("i1", phi, chi, cfg).value, at.i1),
                            (transform("tail", phi, chi, cfg).value, at.tail_upper),
                            (call_price(phi, 1.0, chi, cfg), at.price)):
                worst_z = max(worst_z, abs(want - e.value) / max(e.se, floor))
            e2 = at.i2
            band = max(e2.se + e2.x_quad_err, floor)
            z = abs(transform("i2", phi, chi, cfg, model=m).value - e2.value) / band
            worst_z = max(worst_z, z)
    elapsed = time.perf_counter() - t0
    _report(4, "Fourier engine within 3 SE of the Monte Carlo oracle",
            worst_z <= 3.0 and elapsed < 300.0,
            f"worst |z| {worst_z:.2f} at 1e6 paths, {elapsed:.0f}s")


def test_criterion_5_small_moneyness_bound(setup):
    cfg = setup["cfg"]
    ok = True
    detail = []
    for key in ("merton", "vg"):
        m, phi = setup[key], setup["phi_" + key]
        pts = sweep(m, phi, setup["chis"], cfg)
        margin = min(p.bound_t3 + 10.0 * max(p.err_est, 1e-15) - p.diff
                     for p in pts)
        ok &= margin >= 0.0
        small = sweep(m, phi, [2.0 ** (-j) for j in range(8, 0, -1)], cfg)
        ratios = np.array([p.diff / p.chi for p in small[::-1]])
        slope = np.polyfit(np.arange(8), ratios, 1)[0]
        trend_ok = slope <= max(1e-12, 0.01 * ratios.max())
        cap = max(m.c2_minus, m.c2_plus) / (m.sigma**2 + m.c2)
        ok &= trend_ok and ratios.max() <= cap + 1e-6
        detail.append(f"{key}: margin {margin:.2e}, ratio slope {slope:.1e}")
    _report(5, "difference dominated by the small-moneyness bound, O(chi) order",
            ok, "; ".join(detail))


def test_criterion_6_large_moneyness_bound(setup):
    cfg = setup["cfg"]
    ok = True
    detail = []
    for key in ("merton", "vg"):
        m, phi = setup[key], setup["phi_" + key]
        const = bound_t4_constant(m, phi)
        ok &= const is not None and np.isfinite(const)
        worst = 0.0
        for pt in sweep(m, phi, [2.0 ** j for j in range(1, 9)], cfg):
            slack = 10.0 * max(pt.err_est, 1e-15)
            ok &= pt.diff <= const / pt.chi + slack
            worst = max(worst, pt.chi * pt.diff)
        ok &= worst <= const + 1e-9
        detail.append(f"{key}: const {const:.3g}, max chi*diff {worst:.2e}")
    _report(6, "difference dominated by the large-moneyness bound, O(1/chi) order",
            ok, "; ".join(detail))


def test_criterion_7_black_scholes_degeneration(setup):
    cfg = setup["cfg"]
    bs = to_mmm(bs_benchmark())
    phi = char_fn(bs, HORIZON)
    worst = max(p.diff for p in sweep(bs, phi, setup["chis"], cfg))
    _report(7, "strategies coincide without jumps",
            worst <= 1e-9, f"max |LRM-Delta| {worst:.2e}")


def test_criterion_8_vg_differences_exceed_merton(setup):
    cfg = setup["cfg"]
    means = {}
    for key in ("merton", "vg"):
        pts = sweep(setup[key], setup["phi_" + key], setup["chis"], cfg)
        means[key] = float(np.mean([p.diff for p in pts]))
    _report(8, "variance-gamma differences exceed Merton differences",
            means["vg"] > means["merton"],
            f"vg {means['vg']:.3e} > merton {means['merton']:.3e}")


def test_criterion_9_synthetic_calibration_recovery(setup):
    t0 = time.perf_counter()
    cfg = setup["cfg"]
    expiries = [30 / 365, 58 / 365, 86 / 365, 149 / 365, 240 / 365, 275 / 365,
                331 / 365]
    moneyness = [0.85, 0.88, 0.92, 0.95, 0.97, 0.99, 1.005, 1.02, 1.05, 1.08,
                 1.12, 1.15]

    def quotes_for(mmm):
        qs = []
        for n, T in enumerate(expiries):
            strikes = SPOT * np.asarray(moneyness[:12 if n < 3 else 11])
            (prices,) = call_prices(mmm, SPOT, [T], [strikes], cfg)
            for K, p in zip(strikes, prices):
                qs.append(Quote(T, float(K), float(p)))
        return QuoteSet(spot=SPOT, quotes=tuple(qs))

    ok = True
    detail = []

    mp = merton_benchmark()
    qs = quotes_for(setup["merton"])
    init = MertonParams(mu=mp.mu, sigma=mp.sigma * 1.2, gamma=mp.gamma * 0.8,
                        m=mp.m * 1.2, delta=mp.delta * 0.8)
    res = calibrate(qs, init, cfg)
    got = res.params
    ok &= res.rmse < 0.1 and res.constraint_report.ok
    ok &= abs(got.sigma / mp.sigma - 1) <= 0.05
    ok &= abs(got.delta / mp.delta - 1) <= 0.05
    ok &= abs(got.gamma / mp.gamma - 1) <= 0.15
    ok &= abs(got.m / mp.m - 1) <= 0.15
    detail.append(f"merton rmse {res.rmse:.2e} ({len(qs.quotes)} quotes)")

    vp = vg_benchmark()
    qs = quotes_for(setup["vg"])
    kappa, m, delta = vg_to_kappa(vp)
    init = vg_from_kappa(kappa * 1.2, m * 1.1, delta * 0.92)
    res = calibrate(qs, init, cfg)
    got = res.params
    ok &= res.rmse < 0.1 and res.constraint_report.ok
    ok &= abs(got.c_par / vp.c_par - 1) <= 0.10
    ok &= abs(got.g_par / vp.g_par - 1) <= 0.10
    ok &= abs(got.m_par / vp.m_par - 1) <= 0.10
    detail.append(f"vg rmse {res.rmse:.2e}")

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    _report(9, "synthetic quote sets recover their generating parameters",
            ok, "; ".join(detail) + f", {elapsed:.0f}s")
