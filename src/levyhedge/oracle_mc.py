"""Monte Carlo oracle under the minimal martingale measure.

Brute-force verifier for the Fourier engine: simulates the MMM log return
L_tau exactly and estimates I1, I2, tail probabilities, and call prices
with standard errors.  Sampling is exact for both shipped model families:

* Merton: the tilted jump measure (1 - theta_x) nu(dx) is a two-component
  Gaussian mixture (``MertonMeasure.tilted``), so compound-Poisson paths
  are drawn with its intensity and mixture sizes -- no rejection, no
  weights.
* Variance gamma: (1 - theta_x) nu(dx) splits the same way into two VG
  measures, (1+beta) VG(C, G, M) and -beta VG(C, G+1, M-1), and each VG law
  at horizon tau is a difference of two gamma variates, so L_tau is an
  exact four-gamma sum.

Randomness comes from a counter-based Philox generator split into a fixed
number of substreams, each filling its own slice of the sample.  The
substreams, and the fixed-size path chunks of the I2 pass, run on a thread
pool of one worker per usable CPU (numpy releases the GIL in bulk draws,
``searchsorted`` and elementwise work); the pool starts on first use, and
with one CPU the work runs serially.  Every task writes a disjoint slice
and the means are taken once over whole arrays, so estimates are
reproducible bit for bit and depend neither on the chunking nor on the
worker count.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Optional, Tuple

import numpy as np

from .fourier import _panel_rule
from .levy_core import MmmModel, ZeroMeasure
from .models import MertonMeasure, VgMeasure

__all__ = [
    "McConfig",
    "McSample",
    "McEstimate",
    "McI2Estimate",
    "simulate_log_returns",
    "i1_from_sample",
    "i2_from_sample",
    "tail_upper_from_sample",
    "price_from_sample",
]

_GENERATOR = "numpy.random.Philox"
_N_BATCHES = 64
# paths per task of the I2 pass; fixed, so the split never follows the
# worker count
_CHUNK = 2**16


# one worker per usable CPU (all CPUs where affinity is not exposed), and
# no more than there are substreams
_WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1, _N_BATCHES)
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _map(fn: Callable, *iterables) -> list:
    """``list(map(fn, *iterables))`` on ``_WORKERS`` threads, from a pool
    created on first use; with one worker, a plain serial ``map``."""
    global _POOL
    if _WORKERS == 1:
        return list(map(fn, *iterables))
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="oracle_mc")
    return list(_POOL.map(fn, *iterables))


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 1_000_000
    seed: int = 0
    horizon: float = 0.05

    def __post_init__(self):
        if self.n_paths < 10_000:
            raise ValueError("n_paths must be at least 10000 for a "
                             "reportable estimate")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class McSample:
    """Simulated i.i.d. draws of the MMM log return over one horizon."""

    log_returns: np.ndarray
    horizon: float
    seed: int
    method: str
    generator: str = _GENERATOR

    @property
    def n_paths(self) -> int:
        return self.log_returns.size


@dataclass(frozen=True)
class McEstimate:
    value: float
    se: float


@dataclass(frozen=True)
class McI2Estimate:
    value: float
    se: float
    x_quad_err: float


def _substreams(seed: int) -> List[np.random.Generator]:
    seqs = np.random.SeedSequence(seed).spawn(_N_BATCHES)
    return [np.random.Generator(np.random.Philox(s)) for s in seqs]


def _batch_sizes(n: int) -> List[int]:
    base = n // _N_BATCHES
    sizes = [base] * _N_BATCHES
    sizes[-1] += n - base * _N_BATCHES
    return sizes


def simulate_log_returns(model: MmmModel, cfg: McConfig) -> McSample:
    """Exact sample of L_tau under the MMM; see the module docstring for the
    per-family schemes.  mean(e^L) = 1 within Monte Carlo error is the
    built-in correctness gate.

    Each family's ``draw(rng, nb, start)`` fills ``out[start:start + nb]``
    from one substream."""
    tau = cfg.horizon
    measure = model.measure
    out = np.empty(cfg.n_paths)

    if isinstance(measure, ZeroMeasure):
        method = "brownian"

        def draw(rng, nb, start):
            z = rng.standard_normal(nb)
            out[start:start + nb] = model.drift_star * tau + model.sigma * math.sqrt(tau) * z
    elif isinstance(measure, MertonMeasure):
        method = "exact-tilted-compound-poisson"
        m, d = measure.m, measure.delta
        g_star, p2 = measure.tilted(model.beta)
        drift = (model.drift_star - model.m1_star) * tau

        def draw(rng, nb, start):
            z = rng.standard_normal(nb)
            counts = rng.poisson(g_star * tau, nb)
            total = int(counts.sum())
            jumps = np.zeros(nb)
            if total:
                shift = d * d * (rng.random(total) < p2)
                sizes_j = m + shift + d * rng.standard_normal(total)
                jumps = np.bincount(np.repeat(np.arange(nb), counts),
                                    weights=sizes_j, minlength=nb)
            out[start:start + nb] = (drift + model.sigma * math.sqrt(tau) * z + jumps)
    elif isinstance(measure, VgMeasure):
        method = "exact-tilted-gamma-difference"
        c, g_, mb = measure.c, measure.g, measure.m_big
        beta = model.beta
        c1 = c * (1.0 + beta)
        c2 = -c * beta
        drift = (model.drift_star - model.m1_star) * tau
        if model.sigma != 0.0:
            raise NotImplementedError("VG sampling assumes a pure-jump model")

        def draw(rng, nb, start):
            j = np.zeros(nb)
            if c1 > 0:
                j += rng.standard_gamma(c1 * tau, nb) / mb
                j -= rng.standard_gamma(c1 * tau, nb) / g_
            if c2 > 0:
                j += rng.standard_gamma(c2 * tau, nb) / (mb - 1.0)
                j -= rng.standard_gamma(c2 * tau, nb) / (g_ + 1.0)
            out[start:start + nb] = drift + j
    else:
        raise NotImplementedError(
            f"no exact MMM sampler for measure type {type(measure).__name__}")
    sizes = _batch_sizes(cfg.n_paths)
    _map(draw, _substreams(cfg.seed), sizes, [0, *accumulate(sizes[:-1])])
    return McSample(log_returns=out, horizon=tau, seed=cfg.seed, method=method)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _mean_se(y: np.ndarray) -> McEstimate:
    n = y.size
    return McEstimate(float(y.mean()), float(y.std(ddof=1) / math.sqrt(n)))


def i1_from_sample(sample: McSample, chi: float) -> McEstimate:
    s = np.exp(sample.log_returns)
    return _mean_se(np.where(s > chi, s, 0.0))


def tail_upper_from_sample(sample: McSample, chi: float) -> McEstimate:
    ind = (sample.log_returns >= math.log(chi)).astype(float)
    return _mean_se(ind)


def price_from_sample(sample: McSample, chi: float) -> McEstimate:
    """Call price at unit spot and strike chi."""
    s = np.exp(sample.log_returns)
    return _mean_se(np.maximum(s - chi, 0.0))


def _i2_nodes(measure) -> Tuple[np.ndarray, np.ndarray]:
    """160-point Gauss-Legendre nodes/weights on each of the measure's
    panels for the factor e^{2x}, which keep 0 a panel edge.  The integrand
    vanishes quadratically at 0, so the VG 1/|x| singularity needs no other
    handling.  The rule is built here rather than at import, where its
    eigenvalue solve would slow down every start-up.
    """
    panels = measure.quad_panels(w_re=2.0)
    x, w, _ = _panel_rule([panels[0][0]] + [b for _, b in panels], n=160)
    return x.ravel(), w.ravel()


def _suffix_sums(c: np.ndarray) -> np.ndarray:
    """S[k] = sum_{j >= k} c[j] for k = 0..m; S[m] = 0."""
    out = np.zeros(c.size + 1)
    out[:-1] = np.cumsum(c[::-1])[::-1]
    return out


def i2_from_sample(model: MmmModel, sample: McSample, chi: float) -> McI2Estimate:
    """I2 estimate: outer x-integral by fixed Gauss-Legendre quadrature over
    the path-averaged payoff difference, common random numbers across nodes.

    The per-path aggregate Y_i = sum_j coef_j [(s_i e^{x_j} - chi)^+ -
    (s_i - chi)^+], with coef_j = w_j (e^{x_j} - 1) nu(x_j) and s_i = e^{L_i},
    is piecewise linear in s_i:

        Y_i = s_i A(t_i) - chi B(t_i) - C (s_i - chi)^+,  t_i = log(chi) - L_i,

    where A(t) and B(t) are the sums of coef_j e^{x_j} and coef_j over the
    nodes with x_j > t, and C is the sum of all coef_j.  With the nodes
    sorted once, A and B are suffix sums read at one ``searchsorted`` index
    per path, so the cost is O(n log m) for n paths and m nodes and the
    memory O(n); no n-by-m payoff matrix is formed.

    Y_i makes the standard error exact in the path dimension; the
    x-quadrature error is estimated by dropping to every other node (the
    half rule, with its own suffix sums) and reported separately.  The
    per-path pass fills both Y arrays in chunks of ``_CHUNK`` paths on the
    worker pool; the means are then taken over the whole arrays.
    """
    measure = model.measure
    if measure.is_zero:
        return McI2Estimate(0.0, 0.0, 0.0)
    xs, ws = _i2_nodes(measure)
    coef = ws * (np.exp(xs) - 1.0) * measure.density(xs)   # full rule
    coef_h = coef.copy()
    coef_h[::2] = 0.0                                # half rule (odd nodes, reweighted)
    coef_h *= 2.0
    order = np.argsort(xs)
    xs, coef, coef_h = xs[order], coef[order], coef_h[order]
    ex = np.exp(xs)
    sums = [(_suffix_sums(c * ex), _suffix_sums(c)) for c in (coef, coef_h)]
    L = sample.log_returns
    log_chi = math.log(chi)
    y_full, y_half = np.empty(L.size), np.empty(L.size)

    def aggregate(start: int) -> None:
        part = slice(start, start + _CHUNK)
        k = np.searchsorted(xs, log_chi - L[part], side="right")
        s = np.exp(L[part])
        itm = np.maximum(s - chi, 0.0)
        for y, (a, b) in zip((y_full[part], y_half[part]), sums):
            np.multiply(s, a[k], out=y)
            y -= chi * b[k]
            y -= b[0] * itm

    _map(aggregate, range(0, L.size, _CHUNK))
    est = _mean_se(y_full)
    x_err = abs(float(y_full.mean() - y_half.mean()))
    return McI2Estimate(est.value, est.se, x_err)
