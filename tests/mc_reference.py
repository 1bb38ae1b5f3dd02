"""Independent reference samplers of the MMM log return, for two-sample
checks of ``oracle_mc``, each drawing the law in its textbook form.

Variance gamma: the sum of two VG laws at horizon tau, each a difference
of two gamma variates of one shape, so four gamma arrays per sample:

    L = drift + Gamma(c1 tau)/M - Gamma(c1 tau)/G
              + Gamma(c2 tau)/(M-1) - Gamma(c2 tau)/(G+1),

with c1 = C(1 + beta) and c2 = -C beta (a pair of shape 0 is left out).

Merton: a Brownian motion plus one Poisson(lam tau) jump count per path,
where (1 - theta_x) nu(dx) = gamma (1 + beta) N(m, delta^2) - gamma beta
e^{m + delta^2/2} N(m + delta^2, delta^2) has total mass lam.  Of a path's
N jumps a Binomial(N, omega) number come from the second component, and
the N sizes sum to N(N m + K delta^2, N delta^2).

Each sampler uses one serial numpy generator, so it shares neither
substreams nor code with the oracle."""

import math

import numpy as np


def mmm_drift(model, tau: float) -> float:
    """The deterministic part of L over tau: for VG its value on a path
    whose gamma variates all underflow to 0."""
    return (model.drift_star - model.m1_star) * tau


def vg_variance(model, tau: float) -> float:
    """Var L = tau C [(1+beta)(M^-2 + G^-2) - beta((M-1)^-2 + (G+1)^-2)]."""
    c, g, m, beta = model.measure.c, model.measure.g, model.measure.m_big, model.beta
    return tau * c * ((1.0 + beta) * (m**-2 + g**-2)
                      - beta * ((m - 1.0)**-2 + (g + 1.0)**-2))


def four_gamma_log_returns(model, tau: float, n: int, seed: int) -> np.ndarray:
    c, g, m, beta = model.measure.c, model.measure.g, model.measure.m_big, model.beta
    rng = np.random.default_rng(seed)
    out = np.full(n, mmm_drift(model, tau))
    for a, r, q in ((c * (1.0 + beta), m, g), (-c * beta, m - 1.0, g + 1.0)):
        if a > 0:
            out += rng.standard_gamma(a * tau, n) / r
            out -= rng.standard_gamma(a * tau, n) / q
    return out


def merton_jump_law(model):
    """(lam, omega): the mass of the tilted Merton jump measure and the
    share of its N(m + delta^2, delta^2) component."""
    g, m, d, beta = model.measure.gamma, model.measure.m, model.measure.delta, model.beta
    w2 = -g * beta * math.exp(m + 0.5 * d * d)
    lam = g * (1.0 + beta) + w2
    return lam, w2 / lam


def merton_variance(model, tau: float) -> float:
    """Var L = tau (sigma^2 + lam E J^2) for the mixture jump size J."""
    m, d = model.measure.m, model.measure.delta
    lam, omega = merton_jump_law(model)
    ej2 = (1.0 - omega) * (m * m + d * d) + omega * ((m + d * d)**2 + d * d)
    return tau * (model.sigma**2 + lam * ej2)


def poisson_count_log_returns(model, tau: float, n: int, seed: int) -> np.ndarray:
    m, d = model.measure.m, model.measure.delta
    lam, omega = merton_jump_law(model)
    rng = np.random.default_rng(seed)
    out = mmm_drift(model, tau) + model.sigma * math.sqrt(tau) * rng.standard_normal(n)
    counts = rng.poisson(lam * tau, n)
    second = rng.binomial(counts, omega)
    out += counts * m + second * d * d + d * np.sqrt(counts) * rng.standard_normal(n)
    return out
