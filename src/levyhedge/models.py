"""Merton jump-diffusion and variance-gamma models.

Both ship closed forms for every Levy-measure moment the library needs
(exponential moments over the line and each half-line, x-weighted
moments), so the MMM cumulants assembled in levy_core are closed-form too.
Each closed form is gated behind an equality-with-quadrature test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Tuple, Union

import numpy as np

from .levy_core import LevyMeasure, LevyModel, _complex, _exp, _log, c2_split, compute_mu_s

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
]


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------

def _as_floats(record) -> None:
    # finite plain Python floats, so a record never prints as np.float64(...)
    for f in fields(record):
        value = float(getattr(record, f.name))
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
        object.__setattr__(record, f.name, value)


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
    for name, value in (("kappa", kappa), ("m", m), ("delta", delta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
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
    return _exp(w * m + 0.5 * w * w * delta * delta)


# Cephes ndtr (S. L. Moshier), the kernel of scipy.special.ndtr, ported
# with its coefficient tables, Horner order and branches so that every
# output bit is scipy's; tests/test_models.py compares the two with ==.
_NDTR_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_NDTR_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_NDTR_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_NDTR_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_NDTR_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
           2.23200534594684319226e3, 7.00332514112805075473e3,
           5.55923013010394962768e4)
_NDTR_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
           4.59432382970980127987e3, 2.26290000613890934246e4,
           4.92673942608635921086e4)
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    # polevl with an implied leading coefficient 1
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    # Cephes erf for |x| <= 1, the only range _ndtr reaches it on
    z = x * x
    return x * _polevl(z, _NDTR_T) / _p1evl(z, _NDTR_U)


def _erfc(a: float) -> float:
    # Cephes erfc for a >= 1/sqrt(2), the only range _ndtr calls it on
    if a < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:        # 0, where exp(z) would still be subnormal
        return 0.0
    z = math.exp(z)
    if a < 8.0:
        return (z * _polevl(a, _NDTR_P)) / _p1evl(a, _NDTR_Q)
    return (z * _polevl(a, _NDTR_R)) / _p1evl(a, _NDTR_S)


def _ndtr(a: float) -> float:
    """Standard normal CDF of a float, bit for bit scipy.special.ndtr
    (nan passes through every comparison and comes out nan)."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


class MertonMeasure(LevyMeasure):
    """nu(dx) = gamma * N(m, delta^2) density; total mass gamma."""

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

    def exp_moment(self, w, check: bool = True):
        return self.gamma * (_gauss_emoment(self.m, self.delta, _complex(w)) - 1.0)

    def split_moment(self, w: float) -> Tuple[float, float]:
        # one-sided Gaussian exponential moments via the normal CDF
        g, m, d = self.gamma, self.m, self.delta
        e = _gauss_emoment(m, d, w)
        up = _ndtr((m + w * d * d) / d)      # mass of e^{wx} * N over x > 0
        p_pos = _ndtr(m / d)
        return float(g * (e * up - p_pos)), float(g * (e * (1.0 - up) - (1.0 - p_pos)))

    def tilted(self, beta: float) -> Tuple[float, float]:
        """The jump measure under the tilt theta_x = beta (e^x - 1),
        (1 - theta_x) nu(dx) = lam ((1 - omega) N(m, delta^2) + omega
        N(m + delta^2, delta^2)), as the pair (lam, omega); both components
        are nonnegative for -1 <= beta <= 0, the MMM's range."""
        g, m, d = self.gamma, self.m, self.delta
        e1 = math.exp(m + 0.5 * d * d)
        w1 = g * (1.0 + beta)        # N(m, d^2) component mass
        w2 = -g * beta * e1          # N(m+d^2, d^2) component mass
        lam = w1 + w2
        return lam, w2 / lam

    def x_exp_moment(self, w: float = 1.0) -> float:
        return self.gamma * (self.m + w * self.delta**2) * float(_gauss_emoment(self.m, self.delta, w).real)


class VgMeasure(LevyMeasure):
    """nu(dx) = C (1_{x<0} e^{-G|x|} + 1_{x>0} e^{-M|x|}) dx / |x|."""

    def __init__(self, c: float, g: float, m_big: float):
        self.c = float(c)
        self.g = float(g)
        self.m_big = float(m_big)
        self.w_lo = -self.g
        self.w_hi = self.m_big

    @property
    def log_terms(self):
        """exp_moment(w) as sum c (log a - log(a + s w)) over (c, a, s)."""
        return ((self.c, self.m_big, -1.0), (self.c, self.g, 1.0))

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

    def _sides(self, w):
        # the x > 0 and x < 0 parts of exp_moment(w), as per-factor logs:
        # branch cuts sit on the real axis outside the strip, so these
        # continue analytically along off-axis contours
        c, g, mb = self.c, self.g, self.m_big
        return c * (math.log(mb) - _log(mb - w)), c * (math.log(g) - _log(g + w))

    def exp_moment(self, w, check: bool = True):
        w = _complex(w)
        if check:
            self._check_w(w)
        pos, neg = self._sides(w)
        return pos + neg

    def split_moment(self, w: float) -> Tuple[float, float]:
        self._check_w(w)
        # through exp_moment's complex logs: below 2 the real log differs
        # from their real part in the last bit, which C2+- carry
        pos, neg = self._sides(complex(w))
        return pos.real, neg.real

    def exp_moment_grad(self, w, g_w=None) -> np.ndarray:
        """Derivatives of exp_moment(w) along (C, G, M),
        stacked on a leading axis of 3; no strip guard.  The C column is
        g(w)/C, read from ``g_w``, exp_moment(w), if the caller has it."""
        w = _complex(w)
        c, g, mb = self.c, self.g, self.m_big
        if g_w is None:
            g_w = self.exp_moment(w, check=False)
        return np.array([g_w / c,
                         c * (1.0 / g - 1.0 / (g + w)),
                         c * (1.0 / mb - 1.0 / (mb - w))])

    def x_exp_moment(self, w: float = 1.0) -> float:
        self._check_w(complex(w))
        return self.c * (1.0 / (self.m_big - w) - 1.0 / (self.g + w))


# ---------------------------------------------------------------------------
# Model builders and the operations the rest of the library calls
# ---------------------------------------------------------------------------

def merton_model(p: MertonParams) -> LevyModel:
    return LevyModel(mu=p.mu, sigma=p.sigma,
                     measure=MertonMeasure(p.gamma, p.m, p.delta))


def vg_model(p: VgParams) -> LevyModel:
    """A variance-gamma exponential Levy model.

    The pure subordinated form has no Brownian part and no extra drift, so
    sigma = 0 and mu equals the mean jump C(1/M - 1/G) (which is the drift
    that makes the compensated-jump representation reproduce
    L_t = m G_t + delta B_{G_t}).
    """
    measure = VgMeasure(p.c_par, p.g_par, p.m_par)
    return LevyModel(mu=measure.mean_jump(), sigma=0.0, measure=measure)


def build_model(params: Union[MertonParams, VgParams]) -> LevyModel:
    """The exponential Levy model of a Merton or variance-gamma record."""
    if isinstance(params, MertonParams):
        return merton_model(params)
    if isinstance(params, VgParams):
        return vg_model(params)
    raise TypeError(f"unsupported parameter record {type(params).__name__}")


def _mu_for_mu_s(p: MertonParams, fraction: float = 0.5) -> float:
    """Drift placing mu_s at -fraction * (sigma^2 + C2), by default the
    midpoint of the admissible interval 0 >= mu_s > -(sigma^2 + C2), for the
    volatility and jumps of ``p`` (its own mu is ignored)."""
    probe = merton_model(replace(p, mu=0.0))
    mu_s0 = compute_mu_s(probe)  # mu_s at mu = 0; mu_s has unit slope in mu
    c2p, c2m = c2_split(probe)
    return -fraction * (probe.sigma**2 + c2p + c2m) - mu_s0

