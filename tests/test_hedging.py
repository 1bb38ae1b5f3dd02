import dataclasses
import math

import numpy as np
import pytest

from levyhedge import (
    AccuracyError,
    LevyModel,
    c2_split,
    char_fn,
    compute_mu_s,
    hedging,
    to_mmm,
    transform,
    transform_batch,
)
from levyhedge.benchmarks import HORIZON, benchmark_chi_grid
from levyhedge.hedging import bound_t4_constant, strategy_point, sweep
from levyhedge.models import MertonMeasure


# ---------------------------------------------------------------------------
# formula collapse and limits
# ---------------------------------------------------------------------------

def test_black_scholes_lrm_equals_delta(bs_mmm, phi_bs, cfg):
    for chi in benchmark_chi_grid():
        pt = strategy_point(bs_mmm, phi_bs, chi, cfg, t4_const=None)
        assert abs(pt.lrm - pt.delta) <= 1e-9


def test_lrm_small_chi_limit(vg_mmm, phi_vg, cfg):
    pt = strategy_point(vg_mmm, phi_vg, 1e-3, cfg, t4_const=None)
    assert pt.lrm == pytest.approx(1.0, rel=1e-6)


def test_delta_is_i1(merton_mmm, phi_merton, cfg):
    pt = strategy_point(merton_mmm, phi_merton, 1.02, cfg, t4_const=None)
    (r1,) = transform_batch(("i1",), phi_merton, [1.02], cfg)["i1"]
    assert pt.delta == r1.value
    assert pt.delta == pytest.approx(
        transform("i1", phi_merton, 1.02, cfg).value, abs=1e-12)


def test_lrm_in_unit_interval_on_grid(vg_mmm, phi_vg, cfg):
    for chi in benchmark_chi_grid()[::3]:
        val = strategy_point(vg_mmm, phi_vg, chi, cfg, t4_const=None).lrm
        assert 0.0 <= val <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bound_t3_zero_measure(bs_mmm, phi_bs, cfg):
    assert strategy_point(bs_mmm, phi_bs, 0.9, cfg, t4_const=None).bound_t3 == 0.0
    assert strategy_point(bs_mmm, phi_bs, 1.3, cfg, t4_const=None).bound_t3 == 0.0


def test_bound_t3_matches_manual_assembly(vg_mmm, phi_vg, cfg):
    chi = 1.05
    p_low = 1.0 - transform("tail", phi_vg, chi, cfg).value
    s2c2 = vg_mmm.sigma**2 + vg_mmm.c2
    manual = (chi * vg_mmm.c2_minus / s2c2
              + chi * p_low * (vg_mmm.c2_plus - vg_mmm.c2_minus) / s2c2)
    pt = strategy_point(vg_mmm, phi_vg, chi, cfg, t4_const=None)
    assert pt.bound_t3 == pytest.approx(manual, rel=1e-10)


def test_bound_t3_small_chi_behaviour(vg_mmm, phi_vg, cfg):
    # p* factor vanishes, leaving chi * C2- / (sigma^2 + C2)
    chi = 1e-4
    lead = chi * vg_mmm.c2_minus / (vg_mmm.sigma**2 + vg_mmm.c2)
    pt = strategy_point(vg_mmm, phi_vg, chi, cfg, t4_const=None)
    assert pt.bound_t3 == pytest.approx(lead, rel=1e-6)


def test_bound_t4_zero_measure(bs_mmm, phi_bs, cfg):
    c = bound_t4_constant(bs_mmm, phi_bs)
    pt = strategy_point(bs_mmm, phi_bs, 1.1, cfg, t4_const=c)
    assert pt.bound_t4 == pytest.approx(0.0, abs=1e-15)


def test_bound_t4_scales_as_one_over_chi(vg_mmm, phi_vg, cfg):
    c = bound_t4_constant(vg_mmm, phi_vg)
    assert c is not None and c > 0
    for chi in (0.5, 1.0, 7.0):
        pt = strategy_point(vg_mmm, phi_vg, chi, cfg, t4_const=c)
        assert pt.bound_t4 == pytest.approx(c / chi, rel=1e-9)


def test_bound_t4_absent_when_condition_diverges(pure_jump_merton):
    # the law of pure-jump Merton has an atom, so its condition integral
    # diverges; char_fn refuses the model, and no bound_t4 is ever computed
    with pytest.raises(ValueError, match="asymptote"):
        bound_t4_constant(pure_jump_merton,
                          char_fn(pure_jump_merton, HORIZON))


def _near_lattice_merton():
    # Merton jumps on a near lattice: |phi(v - 2i)| peaks every 4 pi in v,
    # and the condition integral's err_est is about 4e-2 of its total
    probe = LevyModel(mu=0.0, sigma=0.01, measure=MertonMeasure(5.0, 0.5, 0.01))
    mu = -compute_mu_s(probe) - 0.5 * (0.01**2 + sum(c2_split(probe)))
    mmm = to_mmm(LevyModel(mu=mu, sigma=0.01, measure=probe.measure))
    return mmm, char_fn(mmm, 5.0)


def test_bound_t4_absent_when_condition_misses_accuracy():
    mmm, phi = _near_lattice_merton()
    assert bound_t4_constant(mmm, phi) is None


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
    pt_single = strategy_point(vg_mmm, phi_vg, 1.05, cfg,
                               t4_const=bound_t4_constant(vg_mmm, phi_vg))
    assert pt_sweep == pt_single


def test_sweep_validates_grid(vg_mmm, phi_vg, cfg):
    with pytest.raises(ValueError, match="ascending"):
        sweep(vg_mmm, phi_vg, [1.1, 1.0], cfg)
    with pytest.raises(ValueError, match="positive"):
        sweep(vg_mmm, phi_vg, [-1.0, 1.0], cfg)


def test_sweep_computes_failed_condition_integral_once(cfg, monkeypatch):
    # the condition integral of near-lattice Merton misses its accuracy
    # limit; the sweep learns that once, must not retry it at every point,
    # and goes on without the bound
    mmm, phi = _near_lattice_merton()
    calls = []
    real = hedging.theorem4_condition_integral

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hedging, "theorem4_condition_integral", counted)
    points = sweep(mmm, phi, [0.95, 1.0, 1.05], cfg)
    assert len(calls) == 1
    assert all(p.bound_t4 is None for p in points)


def test_non_finite_transform_is_a_flagged_error(merton_mmm, phi_merton,
                                                 cfg):
    # a phi that turns NaN past |z| = 100: the NaN must surface as an
    # error, not as an ok point
    def spoiled(f):
        def g(z):
            out = np.where(np.abs(z) > 100.0, math.nan, f(z))
            return out if isinstance(z, np.ndarray) else complex(out)
        return g
    mmm = merton_mmm
    phi = dataclasses.replace(phi_merton, fn=spoiled(phi_merton.fn),
                              fn_analytic=spoiled(phi_merton.fn_analytic))
    for kind in ("i1", "tail", "i2"):
        with pytest.raises(AccuracyError, match="not finite"):
            transform(kind, phi, 1.0, cfg, model=mmm)
    (point,) = sweep(mmm, phi, [1.0], cfg)
    assert point.flags == ("error:AccuracyError", "point-violation")
    assert point.error.startswith("AccuracyError: ")
    assert "not finite" in point.error
    assert not point.ok


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
        pt = strategy_point(vg_mmm, phi_vg, chi, cfg, t4_const=None)
        ratios.append(pt.diff / chi)
    cap = vg_mmm.c2_minus / (vg_mmm.sigma**2 + vg_mmm.c2)
    assert max(ratios) <= cap + 1e-6


def test_large_chi_order(vg_mmm, phi_vg, cfg):
    c = bound_t4_constant(vg_mmm, phi_vg)
    for j in range(1, 9):
        chi = 2.0 ** j
        pt = strategy_point(vg_mmm, phi_vg, chi, cfg, t4_const=None)
        assert chi * pt.diff <= c + 1e-6
