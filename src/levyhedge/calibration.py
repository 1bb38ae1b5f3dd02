"""Calibration of Merton / variance-gamma parameters to call quotes.

Model prices are MMM expectations E*[(S_T - K)^+] at zero rates, from the
"price" kind of the fixed-node batch engine (``fourier.call_prices``): one
cumulant evaluation per parameter set, on nodes shared by every expiry,
within about 1e-14 of spot of the adaptive ``call_price``.  The fit is
bounded trust-region-reflective least squares (``scipy.optimize.
least_squares``, method "trf") on the residuals (model - mid) / sqrt(n),
whose norm is the RMSE, in box coordinates that are exactly the
admissible set 0 >= mu_s > -(sigma^2 + C2) (``_Family``).  The Jacobian
is the prices' own integrand times tau dPsi*/dtheta, closed form, in the
same pass (``call_prices``).  The fit runs from three starts: the
caller's, clamped into the box, and that point with its tilt coordinate
at 1/4 and at 3/4 of its range, because the variance-gamma RMSE has a
second minimum along D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .fourier import FourierConfig, call_prices
from .levy_core import (
    AccuracyError,
    AssumptionError,
    MmmModel,
    c2_split,
    compute_mu_s,
    to_mmm,
)
from .models import MertonMeasure, MertonParams, VgParams, _mu_for_mu_s, build_model

__all__ = [
    "Quote",
    "QuoteSet",
    "ConstraintReport",
    "CalibrationResult",
    "read_quotes",
    "write_quotes",
    "rmse",
    "calibrate",
    "write_result",
]

Params = Union[MertonParams, VgParams]


@dataclass(frozen=True)
class Quote:
    expiry: float   # year fraction, ACT/365
    strike: float
    mid: float

    def __post_init__(self):
        for name in ("expiry", "strike", "mid"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"quote {name} must be positive and finite: {self}")


@dataclass(frozen=True)
class QuoteSet:
    spot: float
    quotes: Tuple[Quote, ...]
    valuation_date: Optional[date] = None

    def __post_init__(self):
        if not 0 < self.spot < math.inf:
            raise ValueError(f"spot must be positive and finite, got {self.spot}")
        if not self.quotes:
            raise ValueError("quote set is empty")


@dataclass(frozen=True)
class ConstraintReport:
    ok: bool
    mu_s: float
    lower: float       # -(sigma^2 + C2)
    notes: str = ""


@dataclass(frozen=True)
class CalibrationResult:
    """A fit and how it ended.  ``iterations`` counts the trust-region steps
    tried over all starts, ``nfev`` and ``njev`` the residual and Jacobian
    evaluations; ``status`` and ``message`` are scipy's stopping reason for
    the returned start (status > 0: a tolerance was met)."""

    params: Params
    rmse: float
    iterations: int
    converged: bool
    constraint_report: ConstraintReport
    status: int
    message: str
    nfev: int
    njev: int


# ---------------------------------------------------------------------------
# quote file I/O: '#' comments carry spot / date metadata, then a
# comma-separated table with header expiry,strike,mid
# ---------------------------------------------------------------------------

def read_quotes(path) -> QuoteSet:
    spot = None
    val_date = None
    rows: List[Quote] = []
    header_seen = False
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, val = body.partition("=")
                key = key.strip().lower()
                if key == "spot":
                    spot = float(val)
                elif key == "valuation_date":
                    val_date = date.fromisoformat(val.strip())
            continue
        parts = [p.strip() for p in line.split(",")]
        if not header_seen:
            if [p.lower() for p in parts[:3]] != ["expiry", "strike", "mid"]:
                raise ValueError(
                    f"quote file must start with header 'expiry,strike,mid', got {line!r}")
            header_seen = True
            continue
        if len(parts) != 3:
            raise ValueError(f"malformed quote row: {line!r}")
        rows.append(Quote(float(parts[0]), float(parts[1]), float(parts[2])))
    if spot is None:
        raise ValueError("quote file is missing the '# spot = ...' line")
    if not header_seen or not rows:
        raise ValueError("quote file contains no quotes")
    return QuoteSet(spot=spot, quotes=tuple(rows), valuation_date=val_date)


def write_quotes(path, qs: QuoteSet) -> None:
    lines = [f"# spot = {qs.spot!r}", "# day_count = ACT/365"]
    if qs.valuation_date is not None:
        lines.append(f"# valuation_date = {qs.valuation_date.isoformat()}")
    lines.append("expiry,strike,mid")
    for q in qs.quotes:
        lines.append(f"{q.expiry!r},{q.strike!r},{q.mid!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

def _prices_for(params: Params, qs: QuoteSet, cfg: FourierConfig,
                cache: Optional[dict] = None, dpsi: Optional[Callable] = None):
    """Model prices in quote order; with ``dpsi`` (a family's, see
    ``_Family``) the pair (prices, their Jacobian in box coordinates)."""
    model = to_mmm(build_model(params))
    by_expiry: Dict[float, List[int]] = {}
    for idx, q in enumerate(qs.quotes):
        by_expiry.setdefault(q.expiry, []).append(idx)
    strikes = [np.array([qs.quotes[i].strike for i in idxs])
               for idxs in by_expiry.values()]
    order = np.concatenate([np.array(idxs) for idxs in by_expiry.values()])

    def in_quote_order(blocks: List[np.ndarray]) -> np.ndarray:
        out = np.empty((order.size,) + blocks[0].shape[1:])
        out[order] = np.concatenate(blocks)
        return out

    args = (model, qs.spot, list(by_expiry), strikes, cfg, cache)
    if dpsi is None:
        return in_quote_order(call_prices(*args))
    prices, jacobians = call_prices(*args, dpsi=lambda *za: dpsi(model, *za))
    return in_quote_order(prices), in_quote_order(jacobians)


def rmse(params: Params, qs: QuoteSet, cfg: FourierConfig) -> float:
    """Root-mean-squared error of model prices against mid quotes."""
    mids = np.array([q.mid for q in qs.quotes])
    prices = _prices_for(params, qs, cfg)
    return float(np.sqrt(np.mean((prices - mids) ** 2)))


# ---------------------------------------------------------------------------
# box coordinates and the analytic Jacobian
# ---------------------------------------------------------------------------

def constraint_report(params: Params) -> ConstraintReport:
    """The drift constraint of ``params``; ``ok`` applies ``to_mmm``'s own
    test, so a mu_s rounded just above 0 passes as it does there."""
    model = build_model(params)
    mu_s = compute_mu_s(model)
    c2p, c2m = c2_split(model)
    lower = -(model.sigma**2 + c2p + c2m)
    try:
        to_mmm(model)
        ok = True
    except AssumptionError:
        ok = False
    notes = ""
    if isinstance(params, VgParams):
        band = params.m_par - params.g_par
        notes = f"M-G={band:.6g} (needs [1, 3)); M={params.m_par:.6g} (> 4)"
    return ConstraintReport(ok=ok, mu_s=mu_s, lower=lower, notes=notes)


# margin kept inside the open edges of the box (omega < 1, M > 4, D < 3)
_EDGE = 1e-6
# a fit whose RMSE is at most this share of spot reprices the quotes to
# rounding: no other start can better it, so the remaining starts are
# skipped (on the benchmark quotes, 10 evaluations in place of 46 for
# Merton and 53 in place of 165 for variance gamma)
_EXACT = 1e-12


@dataclass(frozen=True)
class _Family:
    """A parameter family in box coordinates, the admissible set exactly:

    * Merton: (log sigma, log lam, omega, m*, log delta*) of the MMM jump
      law lam ((1 - omega) N(m, delta^2) + omega N(m + delta^2, delta^2))
      (``MertonMeasure.tilted``), omega in [0, 1), with its mean m* = m +
      omega delta^2 and variance delta*^2 = delta^2 + omega (1 - omega)
      delta^4.  The prices see only this law, and omega alone moves only
      its shape, so the weakly identified direction is one axis; mu follows.
    * variance gamma: (log C, M, D), D = M - G in [1, 3) and M > 4.

    The open edges keep a margin of _EDGE.  ``tilt`` indexes omega or D,
    the coordinate of the extra starts; ``dpsi(model, z, moments)`` stacks
    the derivatives of Psi* along the box coordinates, given the base
    moments (g(w), g(w + 1)) at w = iz that ``mmm_cumulant`` returns."""

    lower: np.ndarray
    upper: np.ndarray
    tilt: int
    to_params: Callable[[np.ndarray], Params]
    to_box: Callable[[Params], np.ndarray]
    dpsi: Callable[[MmmModel, np.ndarray, Tuple], np.ndarray]


def _merton_params(x: np.ndarray) -> MertonParams:
    lam, omega, var_star = math.exp(x[1]), float(x[2]), math.exp(2.0 * x[4])
    # delta^2 from delta*^2 = delta^2 + omega (1 - omega) delta^4, the
    # root that cancels nothing
    var = 2.0 * var_star / (1.0 + math.sqrt(1.0 + 4.0 * omega * (1.0 - omega)
                                            * var_star))
    m = float(x[3]) - omega * var
    gamma_f = omega * lam * math.exp(-m - 0.5 * var)
    gamma = (1.0 - omega) * lam + gamma_f
    p = MertonParams(mu=0.0, sigma=math.exp(x[0]), gamma=gamma, m=m,
                     delta=math.sqrt(var))
    return replace(p, mu=_mu_for_mu_s(p, gamma_f / gamma))


def _merton_box(p: MertonParams) -> np.ndarray:
    rep = constraint_report(p)
    # f = -beta clamped into its range first: outside it lam may be <= 0
    f = min(max(rep.mu_s / rep.lower, 0.0), 1.0 - _EDGE)
    lam, omega = MertonMeasure(p.gamma, p.m, p.delta).tilted(-f)
    var = p.delta**2
    return np.array([math.log(p.sigma), math.log(lam), omega,
                     p.m + omega * var,
                     0.5 * math.log(var + omega * (1.0 - omega) * var * var)])


def _merton_dpsi(model: MmmModel, z: np.ndarray, moments) -> np.ndarray:
    """Derivatives of the martingale form Psi*(w) = sigma^2 (w^2 - w) / 2 +
    lam (K(w) - 1 - w (K(1) - 1)), w = iz, with K(w) = (1 - omega) E(w) +
    omega E(w + 1) / E(1) the moment function of the MMM jump law and
    E(w) = 1 + g(w) / gamma that of N(m, delta^2)."""
    nu = model.measure
    lam, omega = nu.tilted(model.beta)
    var = nu.delta**2
    e1 = math.exp(nu.m + 0.5 * var)
    w = 1j * z

    def mixture(w, a, b):
        # K and its derivatives along (omega, m, delta^2), given the
        # components' moment functions a = E(w) and b = E(w + 1) / E(1)
        k = (1.0 - omega) * a + omega * b
        return k, np.array([b - a, w * k, 0.5 * w * w * k + omega * w * b])

    k, dk = mixture(w, 1.0 + moments[0] / nu.gamma,
                    (1.0 + moments[1] / nu.gamma) / e1)
    k1, dk1 = mixture(1.0, e1, math.exp(nu.m + 1.5 * var))
    dq = dk - w * dk1.reshape((3,) + (1,) * w.ndim)
    # (omega, m, delta^2) along (omega, m*, log delta*), from
    # m = m* - omega delta^2 and delta*^2 = delta^2 + omega (1 - omega) delta^4
    a = omega * (1.0 - omega)
    dvar_domega = -(1.0 - 2.0 * omega) * var * var / (1.0 + 2.0 * a * var)
    dvar_dlog = 2.0 * (var + a * var * var) / (1.0 + 2.0 * a * var)
    chain = np.array([[1.0, -var - omega * dvar_domega, dvar_domega],
                      [0.0, 1.0, 0.0],
                      [0.0, -omega * dvar_dlog, dvar_dlog]])
    return np.concatenate([[model.sigma**2 * (w * w - w),
                            lam * (k - 1.0 - w * (k1 - 1.0))],
                           lam * np.tensordot(chain, dq, axes=1)])


def _vg_params(x: np.ndarray) -> VgParams:
    return VgParams(c_par=math.exp(x[0]), g_par=float(x[1] - x[2]),
                    m_par=float(x[1]))


def _vg_box(p: VgParams) -> np.ndarray:
    return np.array([math.log(p.c_par), p.m_par, p.m_par - p.g_par])


def _vg_dpsi(model: MmmModel, z: np.ndarray, moments) -> np.ndarray:
    """Derivatives of Psi*(z) = w (beta C2 - sigma^2/2 - g(1)) + sigma^2 w^2
    / 2 + g(w) - beta (g(w + 1) - g(w) - g(1)), w = iz, g the base
    ``exp_moment`` and C2 = g(2) - 2 g(1), with beta = g(1) / C2 moving."""
    nu = model.measure

    def grad_g(w, g_w=None):
        d_c, d_g, d_m = nu.exp_moment_grad(w, g_w)      # G = M - D
        return np.array([nu.c * d_c, d_g + d_m, -d_g])

    w = 1j * np.asarray(z, dtype=complex)
    gw, gw1 = moments
    g1, c2, beta = complex(model.exp_moment_1), model.c2, model.beta
    d_beta = w * c2 + gw - gw1 + g1
    dg1, dg2 = grad_g(1.0), grad_g(2.0)
    dc2 = dg2 - 2.0 * dg1
    col = (slice(None),) + (None,) * w.ndim
    d_jumps = (w * (beta * dc2 - dg1)[col] + (1.0 + beta) * grad_g(w, gw)
               - beta * grad_g(w + 1.0, gw1) + (beta * dg1)[col])
    return d_jumps + ((dg1 - beta * dc2) / c2)[col] * d_beta


_FAMILIES = {
    MertonParams: _Family(np.array([-np.inf, -np.inf, 0.0, -np.inf, -np.inf]),
                          np.array([np.inf, np.inf, 1.0 - _EDGE, np.inf, np.inf]),
                          2, _merton_params, _merton_box, _merton_dpsi),
    VgParams: _Family(np.array([-np.inf, 4.0 + _EDGE, 1.0]),
                      np.array([np.inf, np.inf, 3.0 - _EDGE]), 2,
                      _vg_params, _vg_box, _vg_dpsi),
}


def calibrate(qs: QuoteSet, init: Params, cfg: Optional[FourierConfig] = None,
              max_iter: int = 600) -> CalibrationResult:
    """Fit the family of ``init`` (Merton or variance gamma) to the quotes,
    starting from ``init``.

    Bounded trust-region-reflective least squares on the residuals (model -
    mid) / sqrt(n), in box coordinates (``_Family``) with the analytic
    Jacobian, at most ``max_iter`` residual evaluations per start.  It runs
    from three starts: ``init`` clamped into the box, and that point with
    its tilt coordinate at 1/4 and at 3/4 of its range, since the
    variance-gamma RMSE has a second minimum along D.  The fit of lowest
    RMSE is returned; ``converged`` when it stopped on a tolerance with an
    RMSE no worse than that of the clamped ``init``.
    """
    from scipy.optimize import least_squares  # ~0.3 s to import; only fits need it
    cfg = cfg or FourierConfig()
    family = _FAMILIES.get(type(init))
    if family is None:
        raise TypeError(f"unsupported parameter record {type(init).__name__}")

    mids = np.array([q.mid for q in qs.quotes])
    norm = math.sqrt(mids.size)
    cache: dict = {}
    last: dict = {}

    def residuals(x: np.ndarray) -> np.ndarray:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                prices, jac = _prices_for(family.to_params(x), qs, cfg, cache,
                                          family.dpsi)
        except (AccuracyError, AssumptionError, ValueError):
            # a trial point the engine cannot price: the step is retried shorter
            return np.full(mids.size, np.nan)
        # least_squares asks for the Jacobian at each point it accepts, the
        # last one it evaluated, and most points are accepted: so the
        # Jacobian is computed with the prices and kept
        last["x"], last["jac"] = x.copy(), jac / norm
        return (prices - mids) / norm

    def jacobian(x: np.ndarray) -> np.ndarray:
        if not np.array_equal(x, last.get("x")):
            residuals(x)
        return last["jac"]

    lo, hi = family.lower, family.upper
    x0 = np.clip(family.to_box(init), lo, hi)
    starts = [x0]
    for share in (0.25, 0.75):
        x = x0.copy()
        x[family.tilt] = lo[family.tilt] + share * (hi[family.tilt] - lo[family.tilt])
        starts.append(x)
    rmse0 = math.inf
    best, steps, nfev, njev = None, 0, 0, 0
    for x in starts:
        if best is not None and math.sqrt(2.0 * best.cost) <= _EXACT * qs.spot:
            break
        r = residuals(x)
        if not np.all(np.isfinite(r)):
            continue
        if x is x0:
            rmse0 = float(np.linalg.norm(r))
        # gtol is absolute, in the units of the quotes, so it is off; ftol
        # and xtol are relative
        fit = least_squares(residuals, x, jac=jacobian, bounds=(lo, hi),
                            method="trf", gtol=None, max_nfev=max_iter)
        steps += fit.nfev - 1
        nfev += fit.nfev
        njev += fit.njev
        if best is None or fit.cost < best.cost:
            best = fit
    if best is None:
        raise AccuracyError("no start point of the fit can be priced")

    params = family.to_params(best.x)
    rep = constraint_report(params)
    if not rep.ok:
        raise RuntimeError("calibration returned infeasible parameters; "
                           "box contract broken")
    err = rmse(params, qs, cfg)
    return CalibrationResult(params=params, rmse=err, iterations=steps,
                             converged=best.status > 0 and err <= rmse0,
                             constraint_report=rep, status=best.status,
                             message=best.message, nfev=nfev, njev=njev)


def write_result(path, result: CalibrationResult) -> None:
    """Structured key=value record of a calibration result."""
    lines = []
    p = result.params
    lines.append(f"family = {'merton' if isinstance(p, MertonParams) else 'vg'}")
    for name, val in vars(p).items():
        lines.append(f"{name} = {val!r}")
    lines.append(f"rmse = {result.rmse!r}")
    lines.append(f"iterations = {result.iterations}")
    lines.append(f"residual_evaluations = {result.nfev}")
    lines.append(f"jacobian_evaluations = {result.njev}")
    lines.append(f"status = {result.status}")
    lines.append(f"stop = {result.message}")
    lines.append(f"converged = {result.converged}")
    rep = result.constraint_report
    lines.append(f"constraint_ok = {rep.ok}")
    lines.append(f"mu_s = {rep.mu_s!r}")
    lines.append(f"mu_s_lower_bound = {rep.lower!r}")
    if rep.notes:
        lines.append(f"constraint_notes = {rep.notes}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
