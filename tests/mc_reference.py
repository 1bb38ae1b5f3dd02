"""Independent reference sampler of the MMM variance-gamma log return, for
two-sample checks of ``oracle_mc``.  It draws the law in its textbook form,
the sum of two VG laws at horizon tau, each a difference of two gamma
variates of one shape, so four gamma arrays per sample:

    L = drift + Gamma(c1 tau)/M - Gamma(c1 tau)/G
              + Gamma(c2 tau)/(M-1) - Gamma(c2 tau)/(G+1),

with c1 = C(1 + beta) and c2 = -C beta (a pair of shape 0 is left out).
One serial numpy generator, so it shares neither substreams nor code with
the oracle."""

import numpy as np


def vg_drift(model, tau: float) -> float:
    """The deterministic part of L over tau: its value on a path whose gamma
    variates all underflow to 0."""
    return (model.drift_star - model.m1_star) * tau


def vg_variance(model, tau: float) -> float:
    """Var L = tau C [(1+beta)(M^-2 + G^-2) - beta((M-1)^-2 + (G+1)^-2)]."""
    c, g, m, beta = model.measure.c, model.measure.g, model.measure.m_big, model.beta
    return tau * c * ((1.0 + beta) * (m**-2 + g**-2)
                      - beta * ((m - 1.0)**-2 + (g + 1.0)**-2))


def four_gamma_log_returns(model, tau: float, n: int, seed: int) -> np.ndarray:
    c, g, m, beta = model.measure.c, model.measure.g, model.measure.m_big, model.beta
    rng = np.random.default_rng(seed)
    out = np.full(n, vg_drift(model, tau))
    for a, r, q in ((c * (1.0 + beta), m, g), (-c * beta, m - 1.0, g + 1.0)):
        if a > 0:
            out += rng.standard_gamma(a * tau, n) / r
            out -= rng.standard_gamma(a * tau, n) / q
    return out
