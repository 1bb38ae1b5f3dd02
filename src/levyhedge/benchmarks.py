"""Benchmark parameter sets and the standard experiment grid.

The jump/volatility parameters were estimated from S&P 500 index call
options (close of 2016-04-20, spot 2102.4).  The drift mu of the Merton set
is chosen mid-range of the admissible interval for the structural constraint
0 >= mu_s > -(sigma^2 + C2): prices under the minimal martingale measure pin
down the jump and volatility parameters but leave mu essentially free, so
any admissible value serves; the originally quoted drift is inadmissible
under this parametrization and is rejected by ``to_mmm`` (see tests).
"""

from __future__ import annotations

import numpy as np

from .levy_core import LevyModel, ZeroMeasure
from .models import MertonParams, VgParams, _mu_for_mu_s

__all__ = [
    "SPOT",
    "MATURITY",
    "VALUATION_TIME",
    "HORIZON",
    "merton_benchmark",
    "vg_benchmark",
    "benchmark_strikes",
    "benchmark_chi_grid",
    "bs_benchmark",
    "merton_mu_for_mu_s",
]

SPOT = 2102.4
MATURITY = 1.0
VALUATION_TIME = 0.95
HORIZON = MATURITY - VALUATION_TIME

_MERTON_SIGMA = 0.0435
_MERTON_GAMMA = 0.0054
_MERTON_M = -0.0697
_MERTON_DELTA = 0.0889


def merton_mu_for_mu_s(target_mu_s: float = None) -> float:
    """Drift giving the requested mu_s for the benchmark jump parameters;
    default is the midpoint -(sigma^2 + C2)/2 of the admissible range."""
    probe = MertonParams(mu=0.0, sigma=_MERTON_SIGMA, gamma=_MERTON_GAMMA,
                         m=_MERTON_M, delta=_MERTON_DELTA)
    return _mu_for_mu_s(probe, target_mu_s)


def merton_benchmark() -> MertonParams:
    return MertonParams(mu=merton_mu_for_mu_s(), sigma=_MERTON_SIGMA,
                        gamma=_MERTON_GAMMA, m=_MERTON_M, delta=_MERTON_DELTA)


def vg_benchmark() -> VgParams:
    return VgParams(c_par=6.7910, g_par=30.1807, m_par=33.1507)


def bs_benchmark(sigma: float = 0.2) -> LevyModel:
    """Pure Black-Scholes model with the martingale drift (mu_s = 0)."""
    return LevyModel(mu=-0.5 * sigma**2, sigma=sigma, measure=ZeroMeasure(),
                     s0=SPOT)


def benchmark_strikes() -> np.ndarray:
    return np.arange(1900.0, 2500.0 + 1e-9, 50.0)


def benchmark_chi_grid() -> np.ndarray:
    """Moneyness grid 0.9037 ... 1.1891 (strikes 1900..2500 over spot 2102.4)."""
    return benchmark_strikes() / SPOT
