"""Exponential Levy model core: jump measures, derived constants, and the
minimal-martingale-measure (MMM) transform.

The log price is L_t = mu*t + sigma*W_t + compensated jumps with Levy measure
nu, so S_t = s0 * exp(L_t).  Everything downstream (Fourier transforms,
hedging strategies, bounds) is driven by the MMM dynamics derived here:
a Girsanov tilt -xi on the Brownian part and a jump-intensity tilt
(1 - theta_x) nu(dx), with theta_x proportional to (e^x - 1).
"""

from __future__ import annotations

import cmath
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

__all__ = [
    "LevyIntegrabilityError",
    "AssumptionError",
    "StripError",
    "AccuracyError",
    "LevyMeasure",
    "ZeroMeasure",
    "LevyModel",
    "MmmModel",
    "compute_mu_s",
    "c2_split",
    "to_mmm",
    "mmm_cumulant",
]


class LevyIntegrabilityError(ValueError):
    """A required moment integral of the Levy measure diverges."""


class AssumptionError(ValueError):
    """Model violates the structural drift constraint 0 >= mu_s > -(sigma^2 + C2)."""


class StripError(ValueError):
    """Evaluation requested outside the analyticity strip."""


class AccuracyError(RuntimeError):
    """A numerical result failed to meet its accuracy contract."""


def _within(x, lo: float, hi: float) -> bool:
    """lo < x < hi at every element of x; a scalar is compared as a float,
    without the cost of numpy's reductions on a 0-d array."""
    if isinstance(x, np.ndarray):
        return bool(((lo < x) & (x < hi)).all())
    return lo < x < hi


def _complex(x):
    """A scalar or 0-d array as a Python complex, else a complex array."""
    if isinstance(x, (complex, float, int)):
        return complex(x)
    x = np.asarray(x, dtype=complex)
    return x if x.ndim else complex(x)


def _elementary(name: str) -> Callable:
    """numpy's ``name``, but cmath's (a fraction of the cost) on a complex
    scalar off the real axis, unless it overflows; numpy's on the axis keeps
    the model constants' bits, as cmath's log may differ in the last one."""
    numpy_f, cmath_f = getattr(np, name), getattr(cmath, name)

    def f(x):
        if isinstance(x, complex) and x.imag:
            try:
                return cmath_f(x)
            except (OverflowError, ValueError):
                pass
        return complex(numpy_f(x)) if isinstance(x, complex) else numpy_f(x)
    return f


_exp, _log = _elementary("exp"), _elementary("log")


# ---------------------------------------------------------------------------
# Levy measures
# ---------------------------------------------------------------------------

class LevyMeasure(ABC):
    """Jump measure nu on R \\ {0}.

    The operations below are the only integrals the rest of the library
    needs, and every measure gives its exponential moments in closed form;
    the density and its quadrature panels serve the Monte Carlo I2
    estimator and the quadrature oracle of the tests.
    """

    #: admissible open interval for Re(w) in exp_moment(w); +-inf if entire
    w_lo: float = -math.inf
    w_hi: float = math.inf

    @abstractmethod
    def density(self, x):
        """Levy density d(nu)/dx, vectorized over x."""

    @abstractmethod
    def quad_panels(self, w_re: float = 0.0) -> Sequence[Tuple[float, float]]:
        """Integration panels covering the effective support, split at 0.

        ``w_re`` is the largest Re(w) of any exponential factor e^{wx}
        multiplying the density, so panels can extend far enough into the
        right tail.
        """

    @property
    def is_zero(self) -> bool:
        return False

    def _check_w(self, w) -> None:
        re = w.real
        if not _within(re, self.w_lo, self.w_hi):
            raise StripError(
                f"exp_moment requires Re(w) in ({self.w_lo}, {self.w_hi}); got {re}"
            )

    @abstractmethod
    def exp_moment(self, w, region: str = "all", check: bool = True):
        """Integral of (e^{wx} - 1) nu(dx) over the region ('all'|'pos'|'neg').

        The -1 makes the integrand O(x) at the origin, which keeps
        infinite-activity measures (density ~ 1/|x|) integrable.  Accepts
        scalar or array ``w``.  ``check=False`` skips the strip guard and
        evaluates the analytic continuation of the closed form.
        """

    @abstractmethod
    def x_exp_moment(self, w: float = 1.0) -> float:
        """Integral of x e^{wx} nu(dx); finite under the |x| moment condition."""

    def mean_jump(self) -> float:
        """Integral of x nu(dx)."""
        return self.x_exp_moment(0.0)

    def exp_power_moment(self, n: int, region: str = "all") -> float:
        """Integral of (e^x - 1)^n nu(dx) via the binomial expansion."""
        val = 0.0 + 0.0j
        for j in range(1, n + 1):
            val += math.comb(n, j) * (-1.0) ** (n - j) * self.exp_moment(float(j), region)
        return float(val.real)

    def validate(self) -> None:
        """Check the measure's integrability conditions; the closed forms
        of a measure hold them for every parameter it accepts, unless it
        says otherwise here."""


class ZeroMeasure(LevyMeasure):
    """No jumps (Black-Scholes component only)."""

    @property
    def is_zero(self) -> bool:
        return True

    def density(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def quad_panels(self, w_re: float = 0.0):
        return []

    def exp_moment(self, w, region: str = "all", check: bool = True):
        w = _complex(w)
        return np.zeros(w.shape, dtype=complex) if isinstance(w, np.ndarray) else 0j

    def x_exp_moment(self, w: float = 1.0) -> float:
        return 0.0


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyModel:
    """Exponential Levy model under the physical measure.

    mu     -- drift of the log-price exponent (per unit time)
    sigma  -- Brownian volatility, >= 0
    measure-- Levy measure of the jumps
    s0     -- initial asset price, > 0
    """

    mu: float
    sigma: float
    measure: LevyMeasure
    s0: float = 1.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.s0 <= 0:
            raise ValueError(f"s0 must be > 0, got {self.s0}")

    def validate(self) -> None:
        self.measure.validate()


@dataclass(frozen=True)
class MmmModel:
    """Model transformed to the minimal martingale measure.

    Carries the cached constants used everywhere downstream:
    mu_s (risky-asset drift rate), xi (Brownian Girsanov tilt),
    beta = mu_s / (sigma^2 + C2) (so theta_x = beta * (e^x - 1)),
    the exponential jump moments C2 = C2+ + C2-, the MMM log-price drift
    drift_star, m1_star = integral of x nu*(dx), and exp_moment_1 =
    integral of (e^x - 1) nu(dx), the base moment at w = 1.
    """

    base: LevyModel
    mu_s: float
    xi: float
    beta: float
    c2: float
    c2_plus: float
    c2_minus: float
    drift_star: float
    m1_star: float
    exp_moment_1: complex

    @property
    def sigma(self) -> float:
        return self.base.sigma

    @property
    def measure(self) -> LevyMeasure:
        return self.base.measure

    def theta(self, x):
        """Jump tilt theta_x = beta * (e^x - 1); < 1 on the support of nu."""
        return self.beta * (np.exp(x) - 1.0)

    def exp_moment_star(self, w, check: bool = True, moments: bool = False):
        """Integral of (e^{wx} - 1) nu*(dx), assembled from base-measure
        moments g as g(w) - beta (g(w + 1) - g(w) - g(1)): two evaluations
        of g per call, since g(1) is the model's ``exp_moment_1``.  With
        ``moments``, the triple (integral, g(w), g(w + 1))."""
        g = self.measure.exp_moment
        gw, gw1 = g(w, check=check), g(w + 1.0, check=check)
        star = gw - self.beta * (gw1 - gw - self.exp_moment_1)
        return (star, gw, gw1) if moments else star

    def strip(self) -> Tuple[float, float]:
        """Open interval of valid Im(z) for the MMM cumulant."""
        # exp_moment is evaluated at iz and iz+1, and Re(iz) = -Im(z)
        return 1.0 - self.measure.w_hi, -self.measure.w_lo


def compute_mu_s(model: LevyModel) -> float:
    """Drift rate mu_s = mu + sigma^2/2 + integral of (e^x - 1 - x) nu(dx)."""
    nu = model.measure
    try:
        jump_part = float(complex(nu.exp_moment(1.0)).real) - nu.mean_jump()
    except StripError as exc:
        raise LevyIntegrabilityError(
            f"the first exponential jump moment (e^x - 1) diverges: {exc}") from exc
    return model.mu + 0.5 * model.sigma**2 + jump_part


def c2_split(model: LevyModel) -> Tuple[float, float]:
    """(C2+, C2-): integrals of (e^x - 1)^2 nu(dx) over x>0 and x<0."""
    nu = model.measure
    try:
        c2p = nu.exp_power_moment(2, "pos")
        c2m = nu.exp_power_moment(2, "neg")
    except StripError as exc:
        raise LevyIntegrabilityError(
            f"the squared exponential jump moment (e^x - 1)^2 diverges: {exc}") from exc
    if c2p < -1e-12 or c2m < -1e-12:
        raise LevyIntegrabilityError(f"negative squared moment: {c2p}, {c2m}")
    return max(c2p, 0.0), max(c2m, 0.0)


def to_mmm(model: LevyModel) -> MmmModel:
    """Build the minimal-martingale-measure dynamics for ``model``.

    Validates the integrability conditions and the drift constraint
    0 >= mu_s > -(sigma^2 + C2) eagerly (this is what keeps theta_x < 1; it
    refuses every drift of the deterministic model, sigma = 0 and nu = 0),
    then assembles the Girsanov-tilted Levy triplet:

        xi      = mu_s * sigma / (sigma^2 + C2)
        nu*(dx) = (1 - theta_x) nu(dx)
        b*      = mu - sigma*xi - integral of x theta_x nu(dx)

    The martingale identity Psi*(-i) = 0 holds by construction and is the
    acceptance check for this transform.
    """
    model.validate()
    nu = model.measure
    mu_s = compute_mu_s(model)
    g1 = nu.exp_moment(1.0)
    c2p, c2m = c2_split(model)
    c2 = c2p + c2m
    denom = model.sigma**2 + c2
    if 0.0 < mu_s <= 1e-12 * max(1.0, denom):
        mu_s = 0.0  # roundoff from cancelling drift terms
    if not (0.0 >= mu_s > -denom):
        raise AssumptionError(
            "drift constraint violated: need 0 >= mu_s > -(sigma^2 + C2), "
            f"got mu_s={mu_s:.6g} with -(sigma^2 + C2)={-denom:.6g}")
    beta = mu_s / denom
    xi = beta * model.sigma
    m1 = nu.mean_jump()
    xexp1 = nu.x_exp_moment(1.0)
    drift_star = model.mu - model.sigma * xi - beta * (xexp1 - m1)
    m1_star = m1 - beta * (xexp1 - m1)
    return MmmModel(base=model, mu_s=mu_s, xi=xi, beta=beta, c2=c2,
                    c2_plus=c2p, c2_minus=c2m, drift_star=drift_star,
                    m1_star=m1_star, exp_moment_1=g1)


def mmm_cumulant(model: MmmModel, z, check_strip: bool = True,
                 moments: bool = False):
    """MMM cumulant exponent Psi*(z), so phi_tau(z) = exp(tau * Psi*(z)).

    Psi*(z) = i z b* - sigma^2 z^2 / 2 + integral of
    (e^{izx} - 1 - izx) nu*(dx).  The jump integral is assembled from the
    base measure's closed-form exponential moments.  Accepts scalar or
    array ``z``; ``check_strip=False`` evaluates their analytic
    continuation (used internally for contour tails).  ``moments`` returns
    (Psi*(z), g(w), g(w + 1)), the base moments at w = iz for reuse.
    """
    z = _complex(z)
    if check_strip and not model.measure.is_zero:
        lo, hi = model.strip()
        if not _within(z.imag, lo, hi):
            raise StripError(
                f"Im(z)={z.imag} outside the cumulant strip ({lo}, {hi})")
    iz = 1j * z
    star = model.exp_moment_star(iz, check=check_strip, moments=True)
    jump = star[0] - iz * model.m1_star
    psi = iz * model.drift_star - 0.5 * model.sigma**2 * z * z + jump
    return (psi,) + star[1:] if moments else psi
