"""Merton jump-diffusion and variance-gamma models.

Both ship closed forms for every Levy-measure moment the library needs
(exponential moments, one-sided second moments, x-weighted moments), so the
MMM cumulants assembled in levy_core are closed-form too.  Each closed form
is gated behind an equality-with-quadrature test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple, Union

import numpy as np
from scipy.special import ndtr  # standard normal CDF, vectorized

from .levy_core import LevyMeasure, LevyModel, c2_split, compute_mu_s

__all__ = [
    "MertonParams",
    "VgParams",
    "MertonMeasure",
    "VgMeasure",
    "merton_model",
    "vg_model",
    "build_model",
    "vg_from_kappa",
    "vg_to_kappa",
    "merton_c2_minus",
]


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------

def _as_floats(record) -> None:
    # plain Python floats, so a record never prints as np.float64(...)
    for f in fields(record):
        object.__setattr__(record, f.name, float(getattr(record, f.name)))


@dataclass(frozen=True)
class MertonParams:
    """Brownian volatility plus compound-Poisson jumps with Gaussian sizes.

    gamma -- jump intensity per unit time; m, delta -- mean and std of the
    jump size in log units.
    """

    mu: float
    sigma: float
    gamma: float
    m: float
    delta: float

    def __post_init__(self):
        _as_floats(self)
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")


@dataclass(frozen=True)
class VgParams:
    """Variance-gamma in (C, G, M) form; the time-changed-Brownian
    parametrization (kappa, m, delta) converts via vg_from_kappa."""

    c_par: float
    g_par: float
    m_par: float

    def __post_init__(self):
        _as_floats(self)
        if self.c_par <= 0 or self.g_par <= 0 or self.m_par <= 0:
            raise ValueError("C, G, M must all be positive")
        if self.m_par <= 4:
            raise ValueError(
                f"M must exceed 4 for the required exponential moments, got {self.m_par}")


def vg_from_kappa(kappa: float, m: float, delta: float) -> VgParams:
    """(kappa, m, delta) -> (C, G, M) for the gamma-subordinated Brownian form."""
    if kappa <= 0 or delta <= 0:
        raise ValueError("kappa and delta must be positive")
    root = math.sqrt(m * m + 2.0 * delta * delta / kappa) / (delta * delta)
    return VgParams(c_par=1.0 / kappa, g_par=root + m / (delta * delta),
                    m_par=root - m / (delta * delta))


def vg_to_kappa(p: VgParams) -> Tuple[float, float, float]:
    """Inverse conversion; exact algebra, round-trips to machine precision."""
    c, g, mm = p.c_par, p.g_par, p.m_par
    kappa = 1.0 / c
    delta = math.sqrt(2.0 * c / (g * mm))
    m = c * (1.0 / mm - 1.0 / g)
    return kappa, m, delta


# ---------------------------------------------------------------------------
# Measures with closed-form moments
# ---------------------------------------------------------------------------

def _gauss_emoment(m: float, delta: float, w) -> complex:
    """E[e^{wX}] for X ~ N(m, delta^2); entire in w."""
    return np.exp(w * m + 0.5 * w * w * delta * delta)


class MertonMeasure(LevyMeasure):
    """nu(dx) = gamma * N(m, delta^2) density; total mass gamma."""

    closed_form = True

    def __init__(self, gamma: float, m: float, delta: float):
        self.gamma = float(gamma)
        self.m = float(m)
        self.delta = float(delta)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.m) / self.delta
        return self.gamma * np.exp(-0.5 * z * z) / (math.sqrt(2 * math.pi) * self.delta)

    def quad_panels(self, w_re: float = 0.0):
        # exp(w x) * Gaussian peaks at m + w delta^2; 14 sigmas past it is zero
        r = abs(self.m) + abs(w_re) * self.delta**2 + 14.0 * self.delta
        return [(-r, 0.0), (0.0, r)]

    def total_mass(self) -> float:
        return self.gamma

    def exp_moment(self, w, region: str = "all", check: bool = True):
        w = np.asarray(w, dtype=complex)
        g, m, d = self.gamma, self.m, self.delta
        if region == "all":
            out = g * (_gauss_emoment(m, d, w) - 1.0)
            return complex(out) if out.ndim == 0 else out
        if np.any(np.imag(w) != 0.0):
            return super().exp_moment(w, region, check=check)
        wr = float(np.real(w))
        # one-sided Gaussian exponential moments via the normal CDF
        up = ndtr((m + wr * d * d) / d)      # mass of e^{wx} * N over x > 0
        p_pos = ndtr(m / d)
        if region == "pos":
            return complex(g * (_gauss_emoment(m, d, wr) * up - p_pos))
        if region == "neg":
            return complex(g * (_gauss_emoment(m, d, wr) * (1.0 - up) - (1.0 - p_pos)))
        raise ValueError(f"unknown region {region!r}")

    def x_exp_moment(self, w: float = 1.0) -> float:
        return self.gamma * (self.m + w * self.delta**2) * float(_gauss_emoment(self.m, self.delta, w).real)

    def mean_jump(self) -> float:
        return self.gamma * self.m

    def validate(self) -> None:
        return None  # all moments finite for any (gamma, m, delta)


class VgMeasure(LevyMeasure):
    """nu(dx) = C (1_{x<0} e^{-G|x|} + 1_{x>0} e^{-M|x|}) dx / |x|."""

    closed_form = True

    def __init__(self, c: float, g: float, m_big: float):
        self.c = float(c)
        self.g = float(g)
        self.m_big = float(m_big)
        self.w_lo = -self.g
        self.w_hi = self.m_big

    def density(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x == 0.0):
            raise ValueError("variance-gamma Levy density is undefined at x = 0")
        ax = np.abs(x)
        return self.c * np.where(x < 0, np.exp(-self.g * ax), np.exp(-self.m_big * ax)) / ax

    def quad_panels(self, w_re: float = 0.0):
        a_neg = 45.0 / self.g
        decay_pos = self.m_big - max(w_re, 0.0)
        a_pos = 45.0 / max(decay_pos, 0.5)
        return [(-max(a_neg, 1.5), -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, max(a_pos, 1.5))]

    def total_mass(self) -> float:
        return math.inf

    def exp_moment(self, w, region: str = "all", check: bool = True):
        w = np.asarray(w, dtype=complex)
        if check:
            self._check_w(w)
        c, g, mb = self.c, self.g, self.m_big
        # per-factor logs: branch cuts sit on the real axis outside the
        # strip, so these continue analytically along off-axis contours
        pos = c * (math.log(mb) - np.log(mb - w))
        neg = c * (math.log(g) - np.log(g + w))
        if region == "pos":
            out = pos
        elif region == "neg":
            out = neg
        elif region == "all":
            out = pos + neg
        else:
            raise ValueError(f"unknown region {region!r}")
        return complex(out) if out.ndim == 0 else out

    def x_exp_moment(self, w: float = 1.0) -> float:
        self._check_w(complex(w))
        return self.c * (1.0 / (self.m_big - w) - 1.0 / (self.g + w))

    def mean_jump(self) -> float:
        return self.c * (1.0 / self.m_big - 1.0 / self.g)

    def validate(self) -> None:
        if self.m_big <= 4.0:
            raise ValueError(f"M must exceed 4, got {self.m_big}")


# ---------------------------------------------------------------------------
# Model builders and the operations the rest of the library calls
# ---------------------------------------------------------------------------

def merton_model(p: MertonParams, s0: float = 1.0) -> LevyModel:
    return LevyModel(mu=p.mu, sigma=p.sigma,
                     measure=MertonMeasure(p.gamma, p.m, p.delta), s0=s0)


def vg_model(p: VgParams, sigma: float = 0.0, mu: Optional[float] = None,
             s0: float = 1.0) -> LevyModel:
    """A variance-gamma exponential Levy model.

    The pure subordinated form has no Brownian part and no extra drift, so
    by default sigma = 0 and mu equals the mean jump C(1/M - 1/G) (which is
    the drift that makes the compensated-jump representation reproduce
    L_t = m G_t + delta B_{G_t}).  Both can be overridden.
    """
    measure = VgMeasure(p.c_par, p.g_par, p.m_par)
    if mu is None:
        mu = measure.mean_jump()
    return LevyModel(mu=mu, sigma=sigma, measure=measure, s0=s0)


def build_model(params: Union[MertonParams, VgParams],
                s0: float = 1.0) -> LevyModel:
    """The exponential Levy model of a Merton or variance-gamma record."""
    if isinstance(params, MertonParams):
        return merton_model(params, s0=s0)
    if isinstance(params, VgParams):
        return vg_model(params, s0=s0)
    raise TypeError(f"unsupported parameter record {type(params).__name__}")


def _mu_for_mu_s(p: MertonParams, target_mu_s: Optional[float] = None) -> float:
    """Drift giving ``target_mu_s`` for the volatility and jumps of ``p`` (its
    own mu is ignored).  The default target is -(sigma^2 + C2)/2, the
    midpoint of the admissible interval 0 >= mu_s > -(sigma^2 + C2)."""
    probe = merton_model(replace(p, mu=0.0))
    mu_s0 = compute_mu_s(probe)  # mu_s at mu = 0; mu_s has unit slope in mu
    if target_mu_s is None:
        c2p, c2m = c2_split(probe)
        target_mu_s = -(probe.sigma**2 + c2p + c2m) / 2.0
    return target_mu_s - mu_s0


def merton_c2_minus(p: MertonParams) -> float:
    """Closed form for the negative-side squared exponential jump moment:

    gamma [ e^{2(delta^2+m)} Phi(-(2 delta^2+m)/delta)
            - 2 e^{(delta^2+2m)/2} Phi(-(delta^2+m)/delta)
            + Phi(-m/delta) ]
    """
    g, m, d = p.gamma, p.m, p.delta
    return g * (math.exp(2.0 * (d * d + m)) * ndtr(-(2.0 * d * d + m) / d)
                - 2.0 * math.exp((d * d + 2.0 * m) / 2.0) * ndtr(-(d * d + m) / d)
                + ndtr(-m / d))
