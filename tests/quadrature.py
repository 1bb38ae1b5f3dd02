"""Adaptive-quadrature oracle of the Levy-measure moments and of the MMM
cumulant, the reference of the "closed forms vs quadrature" contract.  Each
function integrates the Levy density directly over the measure's
``quad_panels``, independent of the closed forms it checks."""

import math

import numpy as np
from scipy.integrate import quad

from levyhedge import StripError

QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-10


class QuadratureDivergence(ValueError):
    """A moment integral of the Levy density diverges under quadrature."""


def quad_exp_moment(measure, w: complex, region: str = "all") -> complex:
    """Integral of (e^{wx} - 1) nu(dx) over the region ('all'|'pos'|'neg')."""
    w = complex(w)

    def f(x):
        return (np.exp(w * x) - 1.0) * measure.density(x)

    val = 0.0 + 0.0j
    for a, b in measure.quad_panels(w_re=max(w.real, 0.0)):
        if region == "pos" and b <= 0:
            continue
        if region == "neg" and a >= 0:
            continue
        r = quad(f, a, b, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                 complex_func=True, limit=200)
        val += r[0]
    if not np.isfinite(val):
        raise QuadratureDivergence(
            f"exp_moment diverged at w={w} over region '{region}'")
    return val


def quad_x_exp_moment(measure, w: float = 1.0) -> float:
    """Integral of x e^{wx} nu(dx); finite under the |x| moment condition."""
    measure._check_w(complex(w))

    def f(x):
        return x * np.exp(w * x) * measure.density(x)

    val = 0.0
    for a, b in measure.quad_panels(w_re=max(w, 0.0)):
        val += quad(f, a, b, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=200)[0]
    return val


def validate(measure) -> None:
    """Check the integrability conditions: (|x| v x^2) and (e^x-1)^n for
    n=2,4, the latter inside the measure's strip."""
    try:
        for n in (2, 4):
            measure._check_w(complex(n))
            v = sum(math.comb(n, j) * (-1.0) ** (n - j)
                    * quad_exp_moment(measure, float(j)) for j in range(1, n + 1))
            if not np.isfinite(v):
                raise QuadratureDivergence(
                    f"exponential jump moment (e^x-1)^{n} diverges")
    except StripError as exc:
        raise QuadratureDivergence(
            f"exponential jump moment outside admissible strip: {exc}") from exc
    m_abs = 0.0
    for a, b in measure.quad_panels():
        m_abs += quad(lambda x: np.maximum(np.abs(x), x * x) * measure.density(x),
                      a, b, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=200)[0]
    if not np.isfinite(m_abs):
        raise QuadratureDivergence("moment integral (|x| v x^2) diverges")


def nu_star_density(model, x):
    """Density of the tilted measure nu*(dx) = (1 - theta_x) nu(dx)."""
    return (1.0 - model.theta(x)) * model.measure.density(x)


def mmm_cumulant_quad(model, z: complex) -> complex:
    """Quadrature oracle for Psi*(z): integrates the tilted Levy density
    directly, independent of any closed-form exponential moments."""
    z = complex(z)
    iz = 1j * z

    def f(x):
        return (np.exp(iz * x) - 1.0 - iz * x) * nu_star_density(model, x)

    jump = 0.0 + 0.0j
    for a, b in model.measure.quad_panels(w_re=max(-z.imag, 0.0) + 1.0):
        jump += quad(f, a, b, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                     complex_func=True, limit=200)[0]
    return iz * model.drift_star - 0.5 * model.sigma**2 * z * z + jump
