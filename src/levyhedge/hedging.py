"""Hedging strategies and the model-independent bounds on their distance.

Both strategies are functions of moneyness chi = K / S alone:

    LRM(chi)   = (sigma^2 I1(1,chi) + I2(1,chi)) / (sigma^2 + C2)
    Delta(chi) = I1(1,chi)

and |LRM - Delta| admits two computable upper bounds: one tight for small
chi (linear in chi, driven by C2- and the lower tail probability) and one
of order 1/chi for large chi (an explicit constant involving the
condition integral of |phi(v - 2i)|/(1+v)).  The transforms come from
the fixed-node batch engine ``fourier.transform_batch``: one call per sweep
prices I1, I2 and the tail at every moneyness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from .fourier import (
    CharFn,
    FourierConfig,
    FourierResult,
    theorem4_condition_integral,
    transform_batch,
)
from .levy_core import AccuracyError, MmmModel

__all__ = [
    "StrategyPoint",
    "bound_t4_constant",
    "strategy_point",
    "sweep",
]

# the transforms every point needs
KINDS = ("i1", "i2", "tail")

# invariant slack: bounds are exact mathematics, only quadrature error can
# break them, so violations are tolerated up to this multiple of the
# reported error estimate
SLACK_FACTOR = 10.0


@dataclass(frozen=True)
class StrategyPoint:
    """Per-moneyness record of both strategies, their distance, and bounds."""

    chi: float
    i1: float
    i2: float
    lrm: float
    delta: float
    diff: float
    bound_t3: float
    bound_t4: Optional[float]
    err_est: float
    flags: Tuple[str, ...] = ()
    error: str = ""     # "<Type>: <message>" of a point that raised

    @property
    def ok(self) -> bool:
        return not any(f.endswith("violation") for f in self.flags)


def bound_t4_constant(model: MmmModel, phi: CharFn) -> Optional[float]:
    """Constant of the large-moneyness bound (the bound itself is const/chi):

        sqrt(5) / (2 pi (sigma^2 + C2)) * integral |phi(v-2i)|/(1+v) dv
            * [ C2- + integral_0^inf e^{2x} (e^x - 1)^2 nu(dx) ]

    with the bracket ``model.t4_brace``, set by ``to_mmm``.  Returns None
    when the condition integral misses its accuracy limit.
    """
    try:
        condition = theorem4_condition_integral(phi)
    except AccuracyError:
        return None
    return (math.sqrt(5.0) / (2.0 * math.pi * (model.sigma**2 + model.c2))
            * condition.total * model.t4_brace)


def strategy_point(model: MmmModel, chi: float,
                   transforms: Mapping[str, FourierResult],
                   t4_const: Optional[float]) -> StrategyPoint:
    """LRM, Delta, their distance and both bounds at one moneyness, from
    this point's entries of ``transform_batch`` for KINDS (``sweep`` passes
    them from its one batch call) and the constants of ``model``; the one
    place they are assembled.  The small-moneyness bound is

        chi * [ (1 - p_low) C2- + p_low C2+ ] / (sigma^2 + C2),

    with p_low = p*((-inf, log chi]); the large-moneyness bound is
    t4_const / chi, absent when ``t4_const`` (see bound_t4_constant) is None.
    An entry of ``transforms`` that is an exception is raised.
    """
    for kind in KINDS:
        if isinstance(transforms[kind], Exception):
            raise transforms[kind]
    r1, r2, rt = (transforms[kind] for kind in KINDS)
    s2c2 = model.sigma**2 + model.c2
    lrm_v = (model.sigma**2 * r1.value + r2.value) / s2c2
    delta_v = r1.value
    diff = abs(lrm_v - delta_v)
    p_low = min(max(1.0 - rt.value, 0.0), 1.0)
    b3 = chi * ((1.0 - p_low) * model.c2_minus + p_low * model.c2_plus) / s2c2
    b4 = None if t4_const is None else t4_const / chi
    err = (model.sigma**2 * r1.err_est + r2.err_est) / s2c2 + r1.err_est \
        + chi * rt.err_est * abs(model.c2_plus - model.c2_minus) / s2c2
    flags = list(dict.fromkeys(r1.flags + r2.flags + rt.flags))
    slack = SLACK_FACTOR * max(err, 1e-15)
    if diff > b3 + slack:
        flags.append("t3-violation")
    if b4 is not None and diff > b4 + slack:
        flags.append("t4-violation")
    return StrategyPoint(chi=chi, i1=r1.value, i2=r2.value, lrm=lrm_v,
                         delta=delta_v, diff=diff, bound_t3=b3, bound_t4=b4,
                         err_est=err, flags=tuple(flags))


def sweep(model: MmmModel, phi: CharFn, chis: Sequence[float],
          cfg: FourierConfig) -> List[StrategyPoint]:
    """One StrategyPoint per moneyness, ascending.  The large-moneyness
    constant is computed once per sweep, and left absent when it does not
    exist.  Per-point failures are recorded as flags, not raised, so one bad
    point cannot sink a batch run.
    """
    chis = [float(c) for c in chis]
    if any(b <= a for a, b in zip(chis, chis[1:])):
        raise ValueError("moneyness grid must be strictly ascending")

    t4_const = bound_t4_constant(model, phi)
    batch = transform_batch(KINDS, phi, chis, cfg, model)
    points = []
    for i, chi in enumerate(chis):
        try:
            points.append(strategy_point(
                model, chi, {kind: batch[kind][i] for kind in KINDS}, t4_const))
        except Exception as exc:  # collected, not fail-fast
            points.append(StrategyPoint(
                chi=chi, i1=math.nan, i2=math.nan, lrm=math.nan,
                delta=math.nan, diff=math.nan, bound_t3=math.nan,
                bound_t4=None, err_est=math.inf,
                flags=("error:" + type(exc).__name__, "point-violation"),
                error=f"{type(exc).__name__}: {exc}"))
    return points
