import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scipy.stats import ks_2samp

from levyhedge import (
    FourierConfig,
    LevyModel,
    ZeroMeasure,
    c2_split,
    call_price,
    char_fn,
    compute_mu_s,
    oracle_mc,
    to_mmm,
    transform,
    transform_batch,
)
from levyhedge.benchmarks import HORIZON, vg_benchmark
from levyhedge.models import VgMeasure, VgParams, vg_model
from levyhedge.oracle_mc import (
    McConfig,
    McEstimate,
    McSample,
    _i2_nodes,
    _mean_se,
    _node_index,
    i1_from_sample,
    i2_from_sample,
    martingale_from_sample,
    price_from_sample,
    simulate_log_returns,
    tail_upper_from_sample,
)
from mc_reference import four_gamma_log_returns, vg_drift, vg_variance
from quadrature import nu_star_density

FAST = McConfig(n_paths=200_000, seed=11, horizon=HORIZON)


def _martingale_z(sample):
    eL = np.exp(sample.log_returns)
    se = eL.std(ddof=1) / math.sqrt(eL.size)
    return (eL.mean() - 1.0) / se


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------

def test_black_scholes_sample_distribution():
    sigma = 0.3
    model = to_mmm(LevyModel(mu=-0.5 * sigma**2, sigma=sigma,
                             measure=ZeroMeasure()))
    s = simulate_log_returns(model, FAST)
    assert s.method == "brownian"
    assert abs(_martingale_z(s)) <= 3.0
    assert s.log_returns.mean() == pytest.approx(-0.5 * sigma**2 * HORIZON,
                                                 abs=4 * sigma * math.sqrt(HORIZON / FAST.n_paths))
    assert s.log_returns.std() == pytest.approx(sigma * math.sqrt(HORIZON),
                                                rel=0.02)


def test_merton_sample_martingale(merton_mmm):
    s = simulate_log_returns(merton_mmm, FAST)
    assert s.method == "exact-tilted-compound-poisson"
    assert abs(_martingale_z(s)) <= 3.0


def test_vg_sample_martingale(vg_mmm):
    s = simulate_log_returns(vg_mmm, FAST)
    assert s.method == "exact-tilted-gamma-clock"
    assert abs(_martingale_z(s)) <= 3.0


def test_vg_sample_matches_physical_moments(vg_mmm):
    # under the MMM the variance is the nu*-weighted x^2 integral
    from scipy.integrate import quad
    s = simulate_log_returns(vg_mmm, McConfig(n_paths=400_000, seed=3,
                                              horizon=HORIZON))
    var_star = sum(quad(lambda x: x * x * nu_star_density(vg_mmm, x), a, b,
                        limit=200)[0] for a, b in [(-3, 0), (0, 3)])
    assert s.log_returns.var() == pytest.approx(HORIZON * var_star, rel=0.02)


HEAVY_VG = VgParams(0.5, 5.0, 7.0)


@pytest.mark.parametrize("tau", [1.0 / 365.0, 0.05, 1.0], ids=["1d", "0.05", "1y"])
@pytest.mark.parametrize("params", [vg_benchmark(), HEAVY_VG],
                         ids=["benchmark", "heavy"])
def test_vg_sample_matches_the_four_gamma_reference(params, tau):
    # the gamma-clock draw against tests/mc_reference.py's four-gamma sum,
    # 2e5 paths each.  At one day the gamma shapes are as small as 6.8e-4,
    # standard_gamma returns exactly 0.0 for most draws, and the two
    # schemes put different shares of paths exactly on the drift, so the
    # law is compared away from that atom (KS) and the atom's mass apart
    model = to_mmm(vg_model(params))
    n = 200_000
    new = simulate_log_returns(model, McConfig(n_paths=n, seed=1,
                                               horizon=tau)).log_returns
    ref = four_gamma_log_returns(model, tau, n, seed=2)
    drift = vg_drift(model, tau)
    atoms = [np.abs(L - drift) <= 1e-15 for L in (new, ref)]
    assert ks_2samp(new[~atoms[0]], ref[~atoms[1]]).pvalue > 1e-3
    p_new, p_ref = (a.mean() for a in atoms)
    pooled = 0.5 * (p_new + p_ref)
    assert abs(p_new - p_ref) <= 3.0 * math.sqrt(2.0 * pooled * (1.0 - pooled) / n)
    var = vg_variance(model, tau)
    for L in (new, ref):
        dev2 = (L - L.mean())**2
        assert abs(dev2.mean() - var) <= 3.0 * dev2.std() / math.sqrt(n)


class _CountingStream:
    """A substream that records the name and shape of each draw."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._log.append((name, args[0] if name == "standard_gamma" else None))
            return draw(*args, **kwargs)

        return counted


@pytest.mark.parametrize("share", [0.5, 0.0], ids=["tilted", "beta0"])
def test_vg_draw_takes_two_gamma_clocks_and_one_normal(share, monkeypatch):
    # per substream: Gamma(c1 tau), then Gamma(c2 tau), then one normal;
    # at beta = 0 (mu_s = 0) the second pair has shape 0 and is skipped
    p = vg_benchmark()
    jumps = VgMeasure(p.c_par, p.g_par, p.m_par)
    probe = LevyModel(mu=0.0, sigma=0.0, measure=jumps)
    mu = -compute_mu_s(probe) - share * sum(c2_split(probe))
    model = to_mmm(LevyModel(mu=mu, sigma=0.0, measure=jumps))
    assert (model.beta == 0.0) == (share == 0.0)
    logs = []
    substreams = oracle_mc._substreams

    def counting(seed):
        streams = substreams(seed)
        logs.extend([] for _ in streams)
        return [_CountingStream(rng, log) for rng, log in zip(streams, logs)]

    monkeypatch.setattr(oracle_mc, "_substreams", counting)
    simulate_log_returns(model, FAST)
    c, tau = jumps.c, FAST.horizon
    want = [("standard_gamma", c * (1.0 + model.beta) * tau)]
    if model.beta != 0.0:
        want.append(("standard_gamma", -c * model.beta * tau))
    want.append(("standard_normal", None))
    assert len(logs) == oracle_mc._N_BATCHES
    assert all(log == want for log in logs)


def test_seed_determinism(vg_mmm):
    a = simulate_log_returns(vg_mmm, FAST)
    b = simulate_log_returns(vg_mmm, FAST)
    assert np.array_equal(a.log_returns, b.log_returns)
    c = simulate_log_returns(vg_mmm, McConfig(n_paths=FAST.n_paths, seed=12,
                                              horizon=HORIZON))
    assert not np.array_equal(a.log_returns, c.log_returns)


def test_generator_metadata(merton_mmm):
    s = simulate_log_returns(merton_mmm, FAST)
    assert s.generator == "numpy.random.Philox"
    assert s.seed == FAST.seed
    assert s.n_paths == FAST.n_paths


# ---------------------------------------------------------------------------
# estimators vs trivial values
# ---------------------------------------------------------------------------

def test_mc_i1_at_zero_strike_is_martingale_mean(merton_mmm):
    s = simulate_log_returns(merton_mmm, FAST)
    est = i1_from_sample(s, 1e-12)
    assert est.value == pytest.approx(float(np.exp(s.log_returns).mean()),
                                      rel=1e-14)


def test_mc_i1_far_otm_vanishes(merton_mmm):
    est = i1_from_sample(simulate_log_returns(merton_mmm, FAST), 1e6)
    assert est.value == 0.0


def test_martingale_estimate_is_mean_of_exp(merton_mmm):
    s = simulate_log_returns(merton_mmm, FAST)
    eL = np.exp(s.log_returns)
    est = martingale_from_sample(s)
    assert est == McEstimate(float(eL.mean()),
                             float(eL.std(ddof=1) / math.sqrt(eL.size)))


@pytest.mark.parametrize("n", [2, 3, 1000, 65_537, 200_003])
def test_mean_se_matches_numpy_bit_for_bit(n):
    # the in-place deviations must give numpy's mean and std(ddof=1) exactly
    rng = np.random.default_rng(n)
    for y in (rng.standard_normal(n) * 1e-3 + 1.0, rng.random(n) < 0.3,
              np.exp(rng.standard_normal(n))):
        y = np.asarray(y, dtype=float)
        want = McEstimate(float(y.mean()), float(y.std(ddof=1) / math.sqrt(n)))
        assert _mean_se(y.copy()) == want


@pytest.mark.parametrize("chi", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_estimators_refuse_strikes_that_are_not_positive_and_finite(
        merton_mmm, chi):
    s = simulate_log_returns(merton_mmm, McConfig(n_paths=10_000, seed=1,
                                                  horizon=HORIZON))
    for estimate in (i1_from_sample, tail_upper_from_sample, price_from_sample,
                     lambda smp, c: i2_from_sample(merton_mmm, smp, c)):
        with pytest.raises(ValueError, match="moneyness"):
            estimate(s, chi)


def test_mc_i2_zero_measure():
    model = to_mmm(LevyModel(mu=-0.02, sigma=0.2, measure=ZeroMeasure()))
    s = simulate_log_returns(model, FAST)
    est = i2_from_sample(model, s, 1.0)
    assert est.value == 0.0 and est.se == 0.0


def test_mc_i2_small_chi_approaches_c2(vg_mmm):
    est = i2_from_sample(vg_mmm, simulate_log_returns(vg_mmm, FAST), 1e-3)
    assert abs(est.value - vg_mmm.c2) <= 3.0 * est.se + est.x_quad_err + 1e-6


def _i2_dense(model, sample, chi):
    """Reference I2 estimator: the explicit paths-by-nodes payoff matrix
    that ``i2_from_sample`` sums in closed form (value, SE, x_quad_err)."""
    xs, ws = _i2_nodes(model.measure)
    coef = ws * (np.exp(xs) - 1.0) * model.measure.density(xs)
    coef_h = coef.copy()
    coef_h[::2] = 0.0
    coef_h *= 2.0
    s = np.exp(sample.log_returns)[:, None]
    payoff = np.maximum(s * np.exp(xs)[None, :] - chi, 0.0) - np.maximum(s - chi, 0.0)
    y_full, y_half = payoff @ coef, payoff @ coef_h
    se = y_full.std(ddof=1) / math.sqrt(y_full.size)
    return y_full.mean(), se, abs(y_full.mean() - y_half.mean())


@pytest.mark.parametrize("family", ["merton_mmm", "vg_mmm"])
def test_i2_suffix_sums_match_dense_estimator(family, request):
    model = request.getfixturevalue(family)
    mcfg = McConfig(n_paths=20_000, seed=17, horizon=HORIZON)
    sample = simulate_log_returns(model, mcfg)
    cases = [(sample, chi) for chi in (1e-3, 0.5, 0.9037, 1.0, 1.1891, 3.0)]
    # chi = 1 with L = -x_j puts log(chi) - L exactly on node x_j (a tie
    # between the payoff kink and a node); the other paths are ordinary draws
    xs, _ = _i2_nodes(model.measure)
    L = simulate_log_returns(model, replace(mcfg, seed=5)).log_returns
    L[:xs.size] = -xs
    assert np.array_equal(math.log(1.0) - L[:xs.size], xs)
    tied = McSample(log_returns=L, horizon=HORIZON, seed=5, method="tied")
    cases.append((tied, 1.0))
    for smp, chi in cases:
        est = i2_from_sample(model, smp, chi)
        ref = _i2_dense(model, smp, chi)
        for got, want in zip((est.value, est.se, est.x_quad_err), ref):
            assert abs(got - want) <= 1e-15 + 1e-12 * abs(want), (chi, got, want)


@pytest.mark.parametrize("family", ["merton_mmm", "vg_mmm", "wide_vg"])
def test_node_index_equals_searchsorted(family, request):
    # wide_vg spans 921 in x, so its fullest bin holds 15 nodes and the
    # index takes 15 passes; both benchmark sets take one
    measure = (VgMeasure(0.5, 0.05, 4.1) if family == "wide_vg"
               else request.getfixturevalue(family).measure)
    xs = np.sort(_i2_nodes(measure)[0])
    rng = np.random.default_rng(3)
    span = xs[-1] - xs[0]
    keys = np.concatenate([
        xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
        [-np.inf, -1e300, xs[0] - span, xs[-1] + span, 1e300, np.inf],
        rng.uniform(xs[0] - 0.1 * span, xs[-1] + 0.1 * span, 100_000),
        xs[rng.integers(xs.size, size=1000)] + rng.normal(0, 1e-12, 1000),
    ])
    assert np.array_equal(_node_index(xs)(keys),
                          np.searchsorted(xs, keys, side="right"))


@pytest.mark.parametrize("family", ["bs_mmm", "merton_mmm", "vg_mmm"])
def test_one_worker_matches_the_pool(family, request, monkeypatch):
    # a path count that is a multiple of neither the substream count nor
    # the estimators' chunk, so the last substream and the last chunk are
    # ragged; the pool gets 3 workers whatever the CPU count of the host
    model = request.getfixturevalue(family)
    mcfg = McConfig(n_paths=100_003, seed=29, horizon=HORIZON)
    assert mcfg.n_paths % oracle_mc._N_BATCHES and mcfg.n_paths % oracle_mc._CHUNK
    chis = (0.9037, 1.0, 1.1891)

    def run(workers):
        monkeypatch.setattr(oracle_mc, "_WORKERS", workers)
        monkeypatch.setattr(oracle_mc, "_POOL", None)
        sample = simulate_log_returns(model, mcfg)
        estimates = [martingale_from_sample(sample)]
        for c in chis:
            estimates += [i2_from_sample(model, sample, c),
                          i1_from_sample(sample, c),
                          tail_upper_from_sample(sample, c),
                          price_from_sample(sample, c)]
        return sample.log_returns, estimates

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)      # interleave the workers as much as possible
    try:
        pooled = run(3)
    finally:
        sys.setswitchinterval(interval)
    serial = run(1)
    assert np.array_equal(serial[0], pooled[0])
    assert serial[1] == pooled[1]


def test_i2_memory_is_linear_in_paths(vg_mmm):
    # a paths-by-nodes matrix would need 200000 * 640 * 8 B = 1 GB; the
    # suffix-sum form needs a few path-length arrays (1.6 MB each)
    sample = simulate_log_returns(vg_mmm, McConfig(n_paths=200_000, seed=2,
                                                   horizon=HORIZON))
    tracemalloc.start()
    try:
        i2_from_sample(vg_mmm, sample, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_other_estimators_hold_one_path_length_array(vg_mmm):
    # each fills one per-path array and squares its deviations in place;
    # a copy of e^L, a mask or numpy's std temporary would each add one
    sample = simulate_log_returns(vg_mmm, McConfig(n_paths=200_000, seed=2,
                                                   horizon=HORIZON))
    array_bytes = sample.log_returns.nbytes
    for estimate in (martingale_from_sample,
                     lambda s: i1_from_sample(s, 1.0),
                     lambda s: tail_upper_from_sample(s, 1.0),
                     lambda s: price_from_sample(s, 1.0)):
        tracemalloc.start()
        try:
            estimate(sample)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * array_bytes


# ---------------------------------------------------------------------------
# 3-standard-error agreement with the Fourier engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chi", [0.97, 1.03])
def test_fourier_inside_mc_bands(merton_mmm, phi_merton, vg_mmm, phi_vg,
                                 cfg, chi):
    for mmm, phi in ((merton_mmm, phi_merton), (vg_mmm, phi_vg)):
        s = simulate_log_returns(mmm, FAST)
        e = i1_from_sample(s, chi)
        assert abs(transform("i1", phi, chi, cfg).value - e.value) <= 3.0 * e.se
        e = tail_upper_from_sample(s, chi)
        assert abs(transform("tail", phi, chi, cfg).value - e.value) <= 3.0 * e.se
        e = price_from_sample(s, chi)
        assert abs(call_price(phi, 1.0, chi, cfg) - e.value) <= 3.0 * e.se
        e2 = i2_from_sample(mmm, s, chi)
        v2 = transform("i2", phi, chi, cfg, model=mmm).value
        assert abs(v2 - e2.value) <= 3.0 * e2.se + e2.x_quad_err


@pytest.mark.parametrize("tau", [0.05, 1.0 / 365.0], ids=["0.05", "1d"])
def test_step_estimates_at_a_strike_on_the_carrier(tau):
    # VG (0.5, 5, 7) has drift 0, so chi = 1 sits on the carrier.  At 0.05
    # a fifth of the paths lie within 1e-15 of 0, where e^L rounds to 1.0,
    # so the step must be taken on L; at one day a third sit exactly on
    # L = 0, an atom that must count 1/2, not 1
    model = to_mmm(vg_model(HEAVY_VG))
    phi = char_fn(model, tau)
    assert phi.carrier == 0.0
    sample = simulate_log_returns(model, McConfig(n_paths=1_000_000, seed=7,
                                                  horizon=tau))
    res = transform_batch(("i1", "tail"), phi, [1.0], FourierConfig(), model=model)
    for kind, est in (("i1", i1_from_sample(sample, 1.0)),
                      ("tail", tail_upper_from_sample(sample, 1.0))):
        assert abs(res[kind][0].value - est.value) <= 3.0 * est.se, kind


def test_negative_control_wrong_drift_breaks_martingale(merton_mmm):
    # shifting the drift must push mean(e^L) well outside its 3-SE band
    wrong = replace(merton_mmm, drift_star=merton_mmm.drift_star + 0.02)
    s = simulate_log_returns(wrong, FAST)
    assert _martingale_z(s) > 10.0


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=0)
    with pytest.raises(ValueError):
        McConfig(horizon=-1.0)
