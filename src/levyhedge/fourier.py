"""Damped Fourier transforms of the hedging building blocks.

Every quantity here is an integral of the form

    (prefactor(k) / pi) * Re  integral_0^inf  e^{-i v k} psi(v) dv,
    k = log(moneyness),

where psi carries the MMM characteristic function phi_tau(v - i*alpha) and a
kind-specific rational factor.  Each transform is evaluated per moneyness
by adaptive quadrature, in two parts:

* a "head" over [0, v_max] (v_max = n_grid * eta);
* an analytic "tail" beyond v_max.  Diffusive models (sigma > 0) decay like
  a Gaussian and the head is simply extended; pure-jump models decay only
  algebraically (|phi| ~ v^{-q} with q possibly < 1), so the tail integral
  is taken down a rotated contour v_max -+ i*s where the integrand decays
  exponentially.  Skipping the tail can leave absolute errors of order 1e-2
  for short horizons, far above the tolerances used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.integrate import quad

from .levy_core import (
    AccuracyError,
    DivergenceError,
    MmmModel,
    StripError,
    mmm_cumulant,
)

__all__ = [
    "FourierConfig",
    "CharFn",
    "FourierResult",
    "ConditionIntegral",
    "char_fn",
    "transform",
    "i1",
    "i2",
    "tail_upper",
    "tail_lower",
    "call_price",
    "theorem4_condition_integral",
]

# |k| above which the head quadrature switches to oscillatory (QAWO) rules
_OSC_THRESHOLD = 0.25
# clamp policy: excursions beyond bounds up to this size are rounded off,
# larger ones raise AccuracyError
_CLAMP_TOL = 1e-8


@dataclass(frozen=True)
class FourierConfig:
    """Discretization parameters of the transforms.

    n_grid/eta fix the head truncation v_max = n_grid*eta; alpha is the
    damping exponent in (1, 2].
    """

    n_grid: int = 2**14
    eta: float = 0.025
    alpha: float = 1.75
    epsabs: float = 1e-12
    epsrel: float = 1e-9
    accuracy_limit: float = 1e-5

    def __post_init__(self):
        if self.n_grid < 2 or (self.n_grid & (self.n_grid - 1)) != 0:
            raise ValueError(f"n_grid must be a power of two, got {self.n_grid}")
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not (1.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")

    @property
    def v_max(self) -> float:
        return self.n_grid * self.eta


@dataclass(frozen=True)
class CharFn:
    """Characteristic function z -> E*[e^{i z L_tau}] = exp(tau * Psi*(z)).

    strip_im   -- open interval of Im(z) where the expectation exists;
    sigma      -- Brownian volatility (drives the tail strategy);
    carrier    -- asymptotic linear phase rate of log phi along the real
                  axis, tau*(b* - m1*); 0 for subordinated pure-jump models;
    fn_analytic-- analytic continuation usable at complex v off the strip,
                  present only for closed-form models.
    """

    fn: Callable
    horizon: float
    strip_im: Tuple[float, float]
    sigma: float
    carrier: float = 0.0
    fn_analytic: Optional[Callable] = None

    @property
    def continuable(self) -> bool:
        return self.fn_analytic is not None

    def __call__(self, z):
        return self.fn(z)


def char_fn(model: MmmModel, horizon: float) -> CharFn:
    """Build the MMM characteristic function of L over ``horizon``."""
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if model.sigma == 0.0 and model.measure.is_zero:
        raise ValueError("degenerate deterministic model has no density; "
                         "Fourier inversion does not apply")

    def fn(z):
        return np.exp(horizon * mmm_cumulant(model, z))

    fn_analytic = None
    if getattr(model.measure, "closed_form", False):
        def fn_analytic(z):
            return np.exp(horizon * mmm_cumulant(model, z, check_strip=False))

    if abs(fn(0.0) - 1.0) > 1e-10 or abs(fn(-1j) - 1.0) > 1e-10:
        raise AccuracyError("characteristic function violates phi(0) = "
                            "phi(-i) = 1; the MMM transform is inconsistent")
    carrier = horizon * (model.drift_star - model.m1_star) if model.sigma == 0.0 else 0.0
    return CharFn(fn=fn, horizon=horizon, strip_im=model.strip(),
                  sigma=model.sigma, carrier=carrier, fn_analytic=fn_analytic)


@dataclass(frozen=True)
class FourierResult:
    value: float
    err_est: float
    flags: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ConditionIntegral:
    """Truncated integral of |phi(v - 2i)| / (1 + v) plus its tail estimate."""

    value: float
    tail_estimate: float
    v_cut: float
    decay_power: float

    @property
    def total(self) -> float:
        return self.value + self.tail_estimate


# ---------------------------------------------------------------------------
# psi factories and prefactors per transform kind
# ---------------------------------------------------------------------------

def _make_psi(kind: str, phi: CharFn, alpha: float, model: Optional[MmmModel],
              analytic: bool = False):
    f = phi.fn_analytic if analytic else phi.fn
    if kind == "i1":
        def psi(v):
            return f(v - 1j * alpha) / (alpha - 1.0 + 1j * v)
    elif kind == "tail":
        def psi(v):
            return f(v - 1j * alpha) / (alpha + 1j * v)
    elif kind == "price":
        def psi(v):
            iv = 1j * v
            return f(v - 1j * alpha) / ((alpha - 1.0 + iv) * (alpha + iv))
    elif kind == "i2":
        if model is None:
            raise ValueError("i2 requires the MmmModel for the jump transform")
        g = model.measure.exp_moment
        check = not analytic

        def psi(v):
            iv = 1j * v
            w = alpha + iv
            # inner Levy transform of (e^{wx} - 1)(e^x - 1) over the base measure
            inner = (g(w + 1.0, check=check) - g(w, check=check) - g(1.0))
            return inner * f(v - 1j * alpha) / ((alpha - 1.0 + iv) * (alpha + iv))
    else:
        raise ValueError(f"unknown transform kind {kind!r}")
    return psi


def _prefactor(kind: str, alpha: float, k: float) -> float:
    if kind == "tail":
        return math.exp(-alpha * k) / math.pi
    return math.exp((1.0 - alpha) * k) / math.pi


def _clamped(kind: str, value: float, err: float,
             flags: List[str]) -> float:
    lo, hi = {"i1": (0.0, 1.0), "tail": (0.0, 1.0),
              "price": (0.0, math.inf), "i2": (0.0, math.inf)}[kind]
    tol = max(_CLAMP_TOL, 10.0 * err)
    if value < lo:
        if lo - value > tol:
            raise AccuracyError(
                f"{kind} transform left its range by {lo - value:.3g} "
                f"(err estimate {err:.3g})")
        flags.append("clamped")
        return lo
    if value > hi:
        if value - hi > tol:
            raise AccuracyError(
                f"{kind} transform left its range by {value - hi:.3g} "
                f"(err estimate {err:.3g})")
        flags.append("clamped")
        return hi
    return value


# ---------------------------------------------------------------------------
# head and tail quadratures
# ---------------------------------------------------------------------------

def _quad(f, a, b, cfg: FourierConfig, flags: List[str], tag: str,
          weight=None, wvar=None):
    kwargs = dict(epsabs=cfg.epsabs, epsrel=cfg.epsrel, limit=800,
                  full_output=1)
    if weight is not None:
        kwargs.update(weight=weight, wvar=wvar, maxp1=100)
    out = quad(f, a, b, **kwargs)
    val, err = out[0], out[1]
    if len(out) > 3:
        # quadpack reported trouble; keep the value, surface the condition
        flags.append(tag)
    return val, err


def _segment(psi, k: float, a: float, b: float, cfg: FourierConfig,
             flags: List[str], tag: str) -> Tuple[float, float]:
    """Real part of integral_a^b e^{-ivk} psi(v) dv.  ``tag`` ("head" or
    "tail") names the quadpack flag; the oscillatory (QAWO) route for
    |k| >= _OSC_THRESHOLD appends "-osc" to it."""
    if abs(k) >= _OSC_THRESHOLD:
        vc, ec = _quad(lambda v: psi(v).real, a, b, cfg, flags,
                       tag + "-osc", weight="cos", wvar=k)
        vs, es = _quad(lambda v: psi(v).imag, a, b, cfg, flags,
                       tag + "-osc", weight="sin", wvar=k)
        return vc + vs, ec + es
    return _quad(lambda v: (np.exp(-1j * v * k) * psi(v)).real,
                 a, b, cfg, flags, tag)


def _gauss_cutoff(phi: CharFn, alpha: float) -> float:
    # v beyond which |phi(v - i alpha)| < ~1e-20 from the Brownian part alone
    return math.sqrt(90.0 / (phi.horizon * phi.sigma**2) + alpha**2)


def _tail(kind: str, phi: CharFn, model: Optional[MmmModel], alpha: float,
          k: float, v_start: float, cfg: FourierConfig,
          flags: List[str]) -> Tuple[float, float]:
    """Re of integral_{v_start}^inf e^{-ivk} psi(v) dv, plus error estimate."""
    if phi.sigma > 0.0:
        v2 = _gauss_cutoff(phi, alpha)
        if v2 <= v_start:
            return 0.0, 0.0
        psi = _make_psi(kind, phi, alpha, model)
        return _segment(psi, k, v_start, v2, cfg, flags, "tail")
    if phi.continuable:
        return _tail_contour(kind, phi, model, alpha, k, v_start, cfg, flags)
    # last resort: real-axis improper integral with whatever accuracy
    # quadpack can certify
    psi = _make_psi(kind, phi, alpha, model)
    flags.append("tail-uncontinued")
    val, err = _quad(lambda v: (np.exp(-1j * v * k) * psi(v)).real,
                     v_start, np.inf, cfg, flags, "tail")
    return val, err


def _tail_contour(kind: str, phi: CharFn, model: Optional[MmmModel],
                  alpha: float, k: float, v_start: float, cfg: FourierConfig,
                  flags: List[str]) -> Tuple[float, float]:
    """Rotate the tail onto a vertical contour v_start -+ i s.

    Downward for k above the carrier rate, upward below it; either way
    e^{-ivk} turns into exponential decay in s while phi keeps its algebraic
    decay, and every branch point of the continued integrand sits on the
    imaginary axis, far from the contour.
    """
    psi = _make_psi(kind, phi, alpha, model, analytic=True)
    down = k >= phi.carrier

    def f(s):
        v = v_start - 1j * s if down else v_start + 1j * s
        return np.exp(-1j * v * k) * psi(v)

    rot = -1j if down else 1j
    vr, er = _quad(lambda s: f(s).real, 0.0, np.inf, cfg, flags, "tail-rot")
    vi, ei = _quad(lambda s: f(s).imag, 0.0, np.inf, cfg, flags, "tail-rot")
    val = (rot * (vr + 1j * vi)).real
    return val, er + ei


# ---------------------------------------------------------------------------
# single-point reference path
# ---------------------------------------------------------------------------

def transform(kind: str, phi: CharFn, chi: float, cfg: FourierConfig,
              model: Optional[MmmModel] = None,
              alpha: Optional[float] = None) -> FourierResult:
    """Reference (adaptive-quadrature) evaluation of one transform at one
    moneyness.  ``alpha`` overrides cfg.alpha for tail-probability fallback
    and damping-independence checks."""
    if chi <= 0:
        raise ValueError(f"moneyness must be > 0, got {chi}")
    a = cfg.alpha if alpha is None else alpha
    flags: List[str] = []
    lo, hi = phi.strip_im
    if not (lo < -a < hi):
        if kind == "tail" and alpha is None:
            # fall back to a damping line inside the strip; callers that
            # require a specific line pass alpha explicitly and get the error
            if not (lo < -1.0):
                raise StripError(
                    f"no damping line in (1, 2] fits the strip ({lo}, {hi})")
            a = 0.5 * (1.0 + min(2.0, -lo - 1e-9))
            flags.append(f"alpha-fallback:{a:.6g}")
        else:
            raise StripError(
                f"damping line Im(z) = -{a} outside the strip ({lo}, {hi})")

    if kind == "i2" and model is not None and model.measure.is_zero:
        return FourierResult(0.0, 0.0, ())

    k = math.log(chi)
    psi = _make_psi(kind, phi, a, model)
    head, err_h = _segment(psi, k, 0.0, cfg.v_max, cfg, flags, "head")
    tail, err_t = _tail(kind, phi, model, a, k, cfg.v_max, cfg, flags)
    pre = _prefactor(kind, a, k)
    err = pre * (err_h + err_t)
    if err > cfg.accuracy_limit:
        raise AccuracyError(
            f"{kind} transform error estimate {err:.3g} exceeds the "
            f"accuracy limit {cfg.accuracy_limit:.3g} at chi={chi}")
    value = _clamped(kind, pre * (head + tail), err, flags)
    return FourierResult(value, err, tuple(flags))


# ---------------------------------------------------------------------------
# public single-value wrappers
# ---------------------------------------------------------------------------

def i1(phi: CharFn, chi: float, cfg: FourierConfig) -> float:
    """I1(1, chi) = E*[S_T 1{S_T > chi}] for unit spot; lies in [0, 1]."""
    return transform("i1", phi, chi, cfg).value


def i2(model: MmmModel, phi: CharFn, chi: float, cfg: FourierConfig) -> float:
    """I2(1, chi): the jump-payoff transform against the physical Levy
    measure; nonnegative, tends to C2 as chi -> 0."""
    return transform("i2", phi, chi, cfg, model=model).value


def tail_upper(phi: CharFn, chi: float, cfg: FourierConfig) -> float:
    """p*([log chi, inf)) under the MMM."""
    return transform("tail", phi, chi, cfg).value


def tail_lower(phi: CharFn, chi: float, cfg: FourierConfig) -> float:
    """p*((-inf, log chi]) = 1 - p*([log chi, inf)), clamped to [0, 1]."""
    res = transform("tail", phi, chi, cfg)
    val = 1.0 - res.value
    flags: List[str] = list(res.flags)
    return _clamped("tail", val, res.err_est, flags)


def call_price(phi: CharFn, spot: float, strike: float,
               cfg: FourierConfig) -> float:
    """Zero-rate call price E*[(S_T - K)^+] via its own damped transform.

    Equals spot * (i1 - chi * tail_upper) by partial fractions; computed as
    a single transform of the call payoff.
    """
    if spot <= 0 or strike <= 0:
        raise ValueError("spot and strike must be positive")
    return spot * transform("price", phi, strike / spot, cfg).value


# ---------------------------------------------------------------------------
# large-moneyness bound condition integral
# ---------------------------------------------------------------------------

def theorem4_condition_integral(phi: CharFn, cfg: FourierConfig,
                                v_cut: Optional[float] = None) -> ConditionIntegral:
    """Integral of |phi_tau(v - 2i)| / (1 + v) over v >= 0.

    Finiteness of this integral is the admissibility condition for the
    large-moneyness bound.  The integrand is positive and smooth; for
    diffusive models it dies off like a Gaussian, for pure-jump models it
    decays algebraically and the remainder past the truncation point is
    estimated from the fitted local decay power.  A non-decaying integrand
    raises DivergenceError.
    """
    lo, hi = phi.strip_im
    if not (lo < -2.0 < hi):
        raise StripError(
            f"the line Im(z) = -2 lies outside the strip ({lo}, {hi})")

    def m(v):
        return abs(phi.fn(v - 2j)) / (1.0 + v)

    if phi.sigma > 0.0:
        v2 = v_cut if v_cut is not None else _gauss_cutoff(phi, 2.0)
        val = 0.0
        edges = np.linspace(0.0, v2, 8)
        for a, b in zip(edges[:-1], edges[1:]):
            val += quad(m, a, b, epsabs=cfg.epsabs, epsrel=cfg.epsrel,
                        limit=400)[0]
        resid = m(v2) * 2.0  # Gaussian decay: comfortably dominated
        return ConditionIntegral(val, resid, v2, math.inf)

    v_end = v_cut if v_cut is not None else 1e8
    val = 0.0
    a = 0.0
    b = 10.0
    while a < v_end:
        b = min(b, v_end)
        val += quad(m, a, b, epsabs=cfg.epsabs, epsrel=cfg.epsrel, limit=400)[0]
        a, b = b, b * 10.0
    # fitted decay power of |phi| over the last decade
    p1 = abs(phi.fn(v_end / 10.0 - 2j))
    p2 = abs(phi.fn(v_end - 2j))
    power = (math.log(p1) - math.log(p2)) / math.log(10.0) if p2 > 0 else math.inf
    if power <= 0.02:
        raise DivergenceError(
            "condition integrand shows no decay "
            f"(fitted power {power:.3g} per decade); integral treated as divergent")
    tail_est = p2 / power
    if tail_est > max(val, 1e-300):
        raise DivergenceError(
            f"condition-integral tail estimate {tail_est:.3g} exceeds the "
            f"truncated value {val:.3g}; treated as divergent")
    return ConditionIntegral(val, tail_est, v_end, power)
