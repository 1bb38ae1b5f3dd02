"""Locally risk-minimizing and delta hedging strategies for exponential
Levy models, with damped Fourier transforms evaluated by a fixed-node batch
engine (adaptive quadrature is the reference oracle), model-independent
error bounds, Monte Carlo cross-validation, and quote calibration."""

from .levy_core import (
    AccuracyError,
    AssumptionError,
    LevyMeasure,
    LevyModel,
    MmmModel,
    StripError,
    ZeroMeasure,
    c2_split,
    compute_mu_s,
    mmm_cumulant,
    to_mmm,
)
from .models import (
    MertonParams,
    VgParams,
    merton_model,
    vg_from_kappa,
    vg_model,
    vg_to_kappa,
)
from .fourier import (
    CharFn,
    ConditionIntegral,
    FourierConfig,
    FourierResult,
    call_price,
    call_prices,
    char_fn,
    theorem4_condition_integral,
    transform,
    transform_batch,
)

__version__ = "0.1.0"
