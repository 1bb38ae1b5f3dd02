"""Calibration of Merton / variance-gamma parameters to call quotes.

Model prices are MMM expectations E*[(S_T - K)^+] at zero rates, from the
"price" kind of the fixed-node batch engine (``fourier.call_prices``): one
cumulant evaluation per parameter set, on nodes shared by every expiry,
within about 1e-14 of spot of the adaptive ``call_price``.  The fit
minimizes the RMSE between model and mid prices with a derivative-free
Nelder-Mead search (restarted once) over transformed parameters, plus a
quadratic penalty for the structural constraints:

* both families: 0 >= mu_s > -(sigma^2 + C2);
* variance gamma: M > 4, and the drift constraint is equivalent to the
  band 1 <= M - G < 3, i.e. -3 delta^2/2 < m <= -delta^2/2 in the
  subordinator parametrization -- which makes projection onto the feasible
  set a one-line clip.

Infeasible trial points are projected before pricing so the objective is
finite everywhere; the penalty keeps the optimum interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .fourier import FourierConfig, call_prices
from .levy_core import AccuracyError, AssumptionError, c2_split, compute_mu_s, to_mmm
from .models import (
    MertonParams,
    VgParams,
    build_model,
    vg_from_kappa,
    vg_to_kappa,
)

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
        if self.expiry <= 0 or self.strike <= 0 or self.mid <= 0:
            raise ValueError(f"quote fields must be positive: {self}")


@dataclass(frozen=True)
class QuoteSet:
    spot: float
    quotes: Tuple[Quote, ...]
    valuation_date: Optional[date] = None

    def __post_init__(self):
        if self.spot <= 0:
            raise ValueError("spot must be positive")
        if not self.quotes:
            raise ValueError("quote set is empty")

    def expiries(self) -> List[float]:
        return sorted({q.expiry for q in self.quotes})


@dataclass(frozen=True)
class ConstraintReport:
    ok: bool
    mu_s: float
    lower: float       # -(sigma^2 + C2)
    notes: str = ""


@dataclass(frozen=True)
class CalibrationResult:
    params: Params
    rmse: float
    iterations: int
    converged: bool
    constraint_report: ConstraintReport


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
                cache: Optional[dict] = None) -> np.ndarray:
    model = to_mmm(build_model(params))
    out = np.empty(len(qs.quotes))
    by_expiry: Dict[float, List[int]] = {}
    for idx, q in enumerate(qs.quotes):
        by_expiry.setdefault(q.expiry, []).append(idx)
    strikes = [np.array([qs.quotes[i].strike for i in idxs])
               for idxs in by_expiry.values()]
    prices = call_prices(model, qs.spot, list(by_expiry), strikes, cfg, cache)
    for idxs, p in zip(by_expiry.values(), prices):
        out[np.array(idxs)] = p
    return out


def rmse(params: Params, qs: QuoteSet, cfg: FourierConfig,
         cache: Optional[dict] = None) -> float:
    """Root-mean-squared error of model prices against mid quotes;
    ``cache`` as in ``fourier.call_prices``."""
    mids = np.array([q.mid for q in qs.quotes])
    prices = _prices_for(params, qs, cfg, cache)
    return float(np.sqrt(np.mean((prices - mids) ** 2)))


# ---------------------------------------------------------------------------
# feasibility handling
# ---------------------------------------------------------------------------

def constraint_report(params: Params) -> ConstraintReport:
    model = build_model(params)
    mu_s = compute_mu_s(model)
    c2p, c2m = c2_split(model)
    lower = -(model.sigma**2 + c2p + c2m)
    ok = 0.0 >= mu_s > lower
    notes = ""
    if isinstance(params, VgParams):
        band = params.m_par - params.g_par
        ok = ok and params.m_par > 4.0
        notes = f"M-G={band:.6g} (needs [1, 3)); M={params.m_par:.6g} (> 4)"
    return ConstraintReport(ok=ok, mu_s=mu_s, lower=lower, notes=notes)


def _merton_from_theta(theta: np.ndarray) -> Tuple[MertonParams, float]:
    """Decode, project to feasibility, and return the pre-projection violation."""
    mu, lsig, lgam, m, ldel = theta
    p = MertonParams(mu=float(mu), sigma=math.exp(lsig), gamma=math.exp(lgam),
                     m=float(m), delta=math.exp(ldel))
    rep = constraint_report(p)
    viol = max(rep.mu_s, 0.0) + max(rep.lower - rep.mu_s, 0.0)
    if not rep.ok:
        # mu_s is linear in mu with unit slope: slide mu to mid-range
        target = rep.lower / 2.0
        p = MertonParams(mu=p.mu - rep.mu_s + target, sigma=p.sigma,
                         gamma=p.gamma, m=p.m, delta=p.delta)
    return p, viol


def _vg_from_theta(theta: np.ndarray) -> Tuple[VgParams, float]:
    lkap, m, ldel = theta
    kappa, delta = math.exp(lkap), math.exp(ldel)
    d2 = delta * delta
    lo, hi = -1.499 * d2, -0.501 * d2       # slightly inside the open band
    m_proj = min(max(m, lo), hi)
    viol = abs(m - m_proj) / d2
    root = math.sqrt(m_proj * m_proj + 2.0 * d2 / kappa) / d2
    m_big = root - m_proj / d2
    if m_big <= 4.05:
        # enlarge the subordinator variance until M clears its floor
        target = 4.2
        kappa_new = 2.0 * d2 / ((target + m_proj / d2) ** 2 * d2 * d2 - m_proj**2)
        viol += abs(4.05 - m_big)
        kappa = min(kappa, max(kappa_new, 1e-8))
    return vg_from_kappa(kappa, m_proj, delta), viol


def _theta_from_params(params: Params) -> np.ndarray:
    if isinstance(params, MertonParams):
        return np.array([params.mu, math.log(params.sigma),
                         math.log(params.gamma), params.m,
                         math.log(params.delta)])
    kappa, m, delta = vg_to_kappa(params)
    return np.array([math.log(kappa), m, math.log(delta)])


def calibrate(qs: QuoteSet, init: Params, cfg: Optional[FourierConfig] = None,
              max_iter: int = 600) -> CalibrationResult:
    """Fit the family of ``init`` (Merton or variance gamma) to the quotes,
    starting from ``init``.

    Derivative-free Nelder-Mead with one restart from the incumbent; the
    returned parameters always satisfy the structural constraints (hard
    post-check).  The reported RMSE is that of the returned parameters, and
    never exceeds the objective at the start point.
    """
    from scipy.optimize import minimize  # ~0.3 s to import; only fits need it
    cfg = cfg or FourierConfig()
    decode = {MertonParams: _merton_from_theta,
              VgParams: _vg_from_theta}.get(type(init))
    if decode is None:
        raise TypeError(f"unsupported parameter record {type(init).__name__}")

    scale = float(np.mean([q.mid for q in qs.quotes]))
    cache: dict = {}

    def objective(theta: np.ndarray) -> float:
        params, viol = decode(theta)
        try:
            err = rmse(params, qs, cfg, cache)
        except (AccuracyError, AssumptionError, ValueError):
            # a trial point the engine cannot price counts as infeasible
            return 1e8 * scale
        return err + 1e6 * scale * viol * viol

    params0, _ = decode(_theta_from_params(init))
    theta0 = _theta_from_params(params0)
    rmse0 = objective(theta0)

    total_iters = 0
    best_theta, best_val = theta0, rmse0
    for attempt in range(2):
        res = minimize(objective, best_theta, method="Nelder-Mead",
                       options={"maxiter": max_iter, "xatol": 1e-7,
                                "fatol": 1e-10 * max(scale, 1.0),
                                "adaptive": True})
        total_iters += res.nit
        if res.fun < best_val:
            best_theta, best_val = res.x, res.fun
        if res.success and attempt > 0:
            break
    converged = best_val <= rmse0 + 1e-12

    params, _ = decode(best_theta)
    rep = constraint_report(params)
    if not rep.ok:
        raise RuntimeError("calibration returned infeasible parameters; "
                           "projection contract broken")
    return CalibrationResult(params=params, rmse=rmse(params, qs, cfg),
                             iterations=total_iters, converged=converged,
                             constraint_report=rep)


def write_result(path, result: CalibrationResult) -> None:
    """Structured key=value record of a calibration result."""
    lines = []
    p = result.params
    lines.append(f"family = {'merton' if isinstance(p, MertonParams) else 'vg'}")
    for name, val in vars(p).items():
        lines.append(f"{name} = {val!r}")
    lines.append(f"rmse = {result.rmse!r}")
    lines.append(f"iterations = {result.iterations}")
    lines.append(f"converged = {result.converged}")
    rep = result.constraint_report
    lines.append(f"constraint_ok = {rep.ok}")
    lines.append(f"mu_s = {rep.mu_s!r}")
    lines.append(f"mu_s_lower_bound = {rep.lower!r}")
    if rep.notes:
        lines.append(f"constraint_notes = {rep.notes}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
