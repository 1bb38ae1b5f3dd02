"""Gates of the fixed-node batch engine ``transform_batch``: it agrees with
the adaptive-quadrature oracle ``transform`` on the benchmark sets, its
error estimates account for that agreement, it is independent of the
damping line, and its call prices integrate to I2 (a deterministic oracle
for the jump transform that needs no Fourier formula of its own)."""

import math

import numpy as np
import pytest

from levyhedge import FourierConfig, char_fn, to_mmm, transform, transform_batch
from levyhedge.benchmarks import HORIZON, benchmark_chi_grid
from levyhedge.fourier import _panel_rule, call_prices
from levyhedge.models import VgParams, vg_model

KINDS = ("i1", "i2", "tail", "price")
TAUS = (1 / 365, 0.0096, 0.05, 1.0, 5.0)
ENGINE_TOL = 1e-9
I2_ORACLE_TOL = 1e-10


def _batch(phi, chis, mmm, alpha=1.75):
    res = transform_batch(KINDS, phi, chis, FourierConfig(alpha=alpha), model=mmm)
    for kind in KINDS:
        bad = [r for r in res[kind] if isinstance(r, Exception)]
        assert not bad, f"{kind}: {bad[0]!r}"
    return res


@pytest.mark.parametrize("family", ["merton", "vg"])
@pytest.mark.parametrize("tau", TAUS, ids=["1d", "0.0096", "0.05", "1y", "5y"])
def test_engine_matches_transform(family, tau, request, cfg):
    # benchmark grid, a 0.3-3 grid and chi = e^carrier exactly, where the
    # variance-gamma contour integrand decays only algebraically
    mmm = request.getfixturevalue(f"{family}_mmm")
    phi = char_fn(mmm, tau)
    chis = np.concatenate([benchmark_chi_grid(), np.geomspace(0.3, 3.0, 7),
                           [math.exp(phi.carrier)]])
    res = _batch(phi, chis, mmm)
    damped = _batch(phi, chis, mmm, alpha=1.25)
    for kind in KINDS:
        for chi, r, r_damped in zip(chis, res[kind], damped[kind]):
            ref = transform(kind, phi, chi, cfg, model=mmm)
            gap = abs(r.value - ref.value)
            where = f"{kind} chi={chi:.6g} tau={tau:.4g}"
            assert gap <= ENGINE_TOL, where
            # the gap is the engine's error plus the oracle's: where the
            # oracle is the less accurate one (it flags tail-rot at the
            # carrier), its own estimate covers the difference
            assert gap <= r.err_est + ref.err_est, where
            assert abs(r.value - r_damped.value) <= ENGINE_TOL, where


@pytest.mark.parametrize("tau", TAUS[:3], ids=["1d", "0.0096", "0.05"])
def test_engine_at_the_carrier_of_a_heavy_short_horizon_vg(tau):
    # VG (0.5, 5, 7) at chi = 1 = e^carrier: phi decays like v^(-2 C tau),
    # v^-0.003 at one day, and the engine's closed-form asymptote carries
    # the contour past its last node
    mmm = to_mmm(vg_model(VgParams(0.5, 5.0, 7.0)))
    phi = char_fn(mmm, tau)
    assert phi.carrier == 0.0
    res = _batch(phi, [1.0], mmm)
    for kind in KINDS:
        (r,) = res[kind]
        ref = transform(kind, phi, 1.0, FourierConfig(), model=mmm)
        assert abs(r.value - ref.value) <= r.err_est + ref.err_est, kind


@pytest.mark.parametrize("family", ["merton", "vg"])
def test_engine_matches_transform_at_far_strikes(family, request, cfg):
    # four decades either side of the money, where e^{-ivk} turns fastest
    # and the head panels narrow in proportion: each kind agrees with the
    # oracle within the two error estimates
    mmm = request.getfixturevalue(f"{family}_mmm")
    phi = char_fn(mmm, 0.05)
    chis = [1e-4, 1e4]
    res = _batch(phi, chis, mmm)
    for kind in KINDS:
        for chi, r in zip(chis, res[kind]):
            ref = transform(kind, phi, chi, cfg, model=mmm)
            assert abs(r.value - ref.value) <= r.err_est + ref.err_est, \
                f"{kind} chi={chi:g}"


def _i2_from_prices(mmm, phi, chi, cfg):
    """I2(chi) = int (V(e^x) - V(1)) (e^x - 1) nu(dx), V(s) = s price(chi/s),
    on the Gauss-Legendre x-panels of the Monte Carlo I2 estimator, with an
    extra edge at the kink of V(e^x), x = log chi - carrier."""
    panels = mmm.measure.quad_panels(w_re=2.0)
    edges = np.unique([panels[0][0]] + [b for _, b in panels]
                      + [math.log(chi) - phi.carrier])
    x, w, _ = _panel_rule(edges, n=160)
    x, w = x.ravel(), w.ravel()
    moneyness = np.append(chi * np.exp(-x), chi)
    (prices,) = call_prices(mmm, 1.0, [phi.horizon], [moneyness], cfg)
    v = np.exp(x) * prices[:-1]
    return float(np.sum(w * (v - prices[-1]) * np.expm1(x)
                        * mmm.measure.density(x)))


@pytest.mark.parametrize("family", ["merton", "vg"])
def test_i2_matches_price_quadrature(family, request, cfg):
    mmm = request.getfixturevalue(f"{family}_mmm")
    phi = char_fn(mmm, HORIZON)
    for chi in benchmark_chi_grid():
        oracle = _i2_from_prices(mmm, phi, chi, cfg)
        assert abs(oracle - transform("i2", phi, chi, cfg, model=mmm).value) \
            <= I2_ORACLE_TOL, chi
