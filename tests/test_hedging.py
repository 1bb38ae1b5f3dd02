import numpy as np
import pytest

from levyhedge import hedging, i1
from levyhedge.benchmarks import HORIZON, benchmark_chi_grid
from levyhedge.hedging import (
    bound_t3,
    bound_t4,
    bound_t4_constant,
    delta,
    lrm,
    strategy_point,
    strategy_point_for_strike,
    sweep,
)


# ---------------------------------------------------------------------------
# formula collapse and limits
# ---------------------------------------------------------------------------

def test_black_scholes_lrm_equals_delta(bs_mmm, phi_bs, cfg):
    for chi in benchmark_chi_grid():
        l = lrm(bs_mmm, phi_bs, chi, cfg)
        d = delta(phi_bs, chi, cfg)
        assert abs(l - d) <= 1e-9


def test_lrm_small_chi_limit(vg_mmm, phi_vg, cfg):
    assert lrm(vg_mmm, phi_vg, 1e-3, cfg) == pytest.approx(1.0, rel=1e-6)


def test_delta_is_i1(phi_merton, cfg):
    assert delta(phi_merton, 1.02, cfg) == i1(phi_merton, 1.02, cfg)


def test_lrm_in_unit_interval_on_grid(vg_mmm, phi_vg, cfg):
    for chi in benchmark_chi_grid()[::3]:
        val = lrm(vg_mmm, phi_vg, chi, cfg)
        assert 0.0 <= val <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bound_t3_zero_measure(bs_mmm, phi_bs, cfg):
    assert bound_t3(bs_mmm, phi_bs, 0.9, cfg) == 0.0
    assert bound_t3(bs_mmm, phi_bs, 1.3, cfg) == 0.0


def test_bound_t3_matches_manual_assembly(vg_mmm, phi_vg, cfg):
    from levyhedge import tail_lower
    chi = 1.05
    p_low = tail_lower(phi_vg, chi, cfg)
    s2c2 = vg_mmm.sigma**2 + vg_mmm.c2
    manual = (chi * vg_mmm.c2_minus / s2c2
              + chi * p_low * (vg_mmm.c2_plus - vg_mmm.c2_minus) / s2c2)
    assert bound_t3(vg_mmm, phi_vg, chi, cfg) == pytest.approx(manual, rel=1e-10)


def test_bound_t3_small_chi_behaviour(vg_mmm, phi_vg, cfg):
    # p* factor vanishes, leaving chi * C2- / (sigma^2 + C2)
    chi = 1e-4
    lead = chi * vg_mmm.c2_minus / (vg_mmm.sigma**2 + vg_mmm.c2)
    assert bound_t3(vg_mmm, phi_vg, chi, cfg) == pytest.approx(lead, rel=1e-6)


def test_bound_t4_zero_measure(bs_mmm, phi_bs, cfg):
    assert bound_t4(bs_mmm, phi_bs, 1.1, cfg) == pytest.approx(0.0, abs=1e-15)


def test_bound_t4_scales_as_one_over_chi(vg_mmm, phi_vg, cfg):
    c = bound_t4_constant(vg_mmm, phi_vg, cfg)
    assert c is not None and c > 0
    for chi in (0.5, 1.0, 7.0):
        assert bound_t4(vg_mmm, phi_vg, chi, cfg) == pytest.approx(c / chi,
                                                                   rel=1e-9)


def test_bound_t4_absent_when_condition_diverges(vg_mmm, phi_vg, cfg):
    from levyhedge import CharFn
    flat = CharFn(fn=lambda z: np.exp(1j * np.asarray(z, complex) * 0.01),
                  horizon=HORIZON, strip_im=(-5.0, 5.0), sigma=0.0)
    assert bound_t4(vg_mmm, flat, 1.5, cfg) is None


def test_bounds_dominate_difference_on_grid(merton_mmm, phi_merton,
                                            vg_mmm, phi_vg, cfg):
    for mmm, phi in ((merton_mmm, phi_merton), (vg_mmm, phi_vg)):
        points = sweep(mmm, phi, benchmark_chi_grid(), cfg)
        for p in points:
            slack = 10.0 * max(p.err_est, 1e-15)
            assert p.diff <= p.bound_t3 + slack
            assert p.bound_t4 is not None
            assert p.diff <= p.bound_t4 + slack
            assert not p.flags


# ---------------------------------------------------------------------------
# sweep mechanics
# ---------------------------------------------------------------------------

def test_sweep_single_point_matches_individual(vg_mmm, phi_vg, cfg):
    pt_sweep = sweep(vg_mmm, phi_vg, [1.05], cfg)[0]
    pt_single = strategy_point(vg_mmm, phi_vg, 1.05, cfg)
    assert pt_sweep == pt_single


def test_sweep_validates_grid(vg_mmm, phi_vg, cfg):
    with pytest.raises(ValueError, match="ascending"):
        sweep(vg_mmm, phi_vg, [1.1, 1.0], cfg)
    with pytest.raises(ValueError, match="positive"):
        sweep(vg_mmm, phi_vg, [-1.0, 1.0], cfg)


def test_sweep_computes_divergent_condition_integral_once(vg_mmm, cfg,
                                                         monkeypatch):
    # at tau = 1 day the VG condition integral is treated as divergent; the
    # sweep learns that once and must not retry it at every point
    from levyhedge import char_fn
    phi = char_fn(vg_mmm, 1.0 / 365.0)
    calls = []
    real = hedging.theorem4_condition_integral

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hedging, "theorem4_condition_integral", counted)
    points = sweep(vg_mmm, phi, [0.95, 1.0, 1.05], cfg)
    assert len(calls) == 1
    assert all(p.bound_t4 is None for p in points)


def test_scale_invariance_exact(vg_mmm, phi_vg, cfg):
    a = strategy_point_for_strike(vg_mmm, phi_vg, 2102.4, 2200.0, cfg)
    b = strategy_point_for_strike(vg_mmm, phi_vg, 21024.0, 22000.0, cfg)
    assert a == b


def test_vg_differences_exceed_merton(merton_mmm, phi_merton, vg_mmm,
                                      phi_vg, cfg):
    chis = benchmark_chi_grid()
    d_m = np.mean([p.diff for p in sweep(merton_mmm, phi_merton, chis, cfg)])
    d_v = np.mean([p.diff for p in sweep(vg_mmm, phi_vg, chis, cfg)])
    assert d_v > d_m


def test_small_chi_order(vg_mmm, phi_vg, cfg):
    # |LRM - Delta| / chi stays bounded as chi -> 0
    ratios = []
    for j in range(1, 9):
        chi = 2.0 ** (-j)
        pt = strategy_point(vg_mmm, phi_vg, chi, cfg, compute_t4=False)
        ratios.append(pt.diff / chi)
    cap = vg_mmm.c2_minus / (vg_mmm.sigma**2 + vg_mmm.c2)
    assert max(ratios) <= cap + 1e-6


def test_large_chi_order(vg_mmm, phi_vg, cfg):
    c = bound_t4_constant(vg_mmm, phi_vg, cfg)
    for j in range(1, 9):
        chi = 2.0 ** j
        pt = strategy_point(vg_mmm, phi_vg, chi, cfg, compute_t4=False)
        assert chi * pt.diff <= c + 1e-6
