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
  at horizon tau is a pair Gamma(a)/r - Gamma(a)/q of one shape a = C tau.
  Each pair is a Brownian motion on a gamma clock (Madan, Carr & Chang,
  1998): theta V + s sqrt(V) Z with V ~ Gamma(a), theta = 1/r - 1/q and
  s^2 = 2/(rq), because (1 - u/r)(1 + u/q) = 1 - theta u - s^2 u^2 / 2
  equates their moment generating functions.  Given both clocks the two
  Gaussian pieces are one Gaussian, so a path takes two gamma variates and
  one normal (one gamma when beta = 0).

Randomness comes from a counter-based Philox generator split into a fixed
number of substreams, each filling its own slice of the sample.  Every
estimator then fills its per-path array (two for I2) in fixed slices of
``_CHUNK`` paths.  Substreams and slices run on a thread pool of one worker
per usable CPU (numpy releases the GIL in bulk draws, gathers and
elementwise work); the pool starts on first use, and with one CPU the work
runs serially.  Every task writes a disjoint slice and each mean and
standard error is taken once over a whole array, so estimates are
reproducible bit for bit and depend neither on the chunking nor on the
worker count.  ``_mean_se`` squares the deviations in the per-path array
itself, so an estimator holds one path-length array (I2 two) beside the
sample.

I2 sums its quadrature nodes per path from suffix sums, read at the
path's index among the sorted nodes.  ``_node_index`` finds that index in
O(1) from a table of ``_BINS`` uniform bins, built per call from the node
set, and a fixed number of one-node steps computed from the table; it
equals ``np.searchsorted(..., side="right")`` exactly, because the
floating-point bin of a key never decreases as the key grows.
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

from .fourier import _moneyness, _panel_rule
from .levy_core import MmmModel, ZeroMeasure
from .models import MertonMeasure, VgMeasure

__all__ = [
    "McConfig",
    "McSample",
    "McEstimate",
    "McI2Estimate",
    "simulate_log_returns",
    "martingale_from_sample",
    "i1_from_sample",
    "i2_from_sample",
    "tail_upper_from_sample",
    "price_from_sample",
]

_GENERATOR = "numpy.random.Philox"
_N_BATCHES = 64
# paths per task of an estimator's per-path pass; fixed, so the split never
# follows the worker count
_CHUNK = 2**16
# uniform bins of the I2 node index
_BINS = 2**16


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
        method = "exact-tilted-gamma-clock"
        c, g_, mb = measure.c, measure.g, measure.m_big
        beta = model.beta
        drift = (model.drift_star - model.m1_star) * tau
        if model.sigma != 0.0:
            raise NotImplementedError("VG sampling assumes a pure-jump model")
        # (shape, theta, s^2) of each pair Gamma(a)/r - Gamma(a)/q with a
        # positive shape: a Brownian motion with drift theta and variance
        # s^2 run on the gamma clock V ~ Gamma(a)
        pairs = [(a * tau, 1.0 / r - 1.0 / q, 2.0 / (r * q))
                 for a, r, q in ((c * (1.0 + beta), mb, g_),
                                 (-c * beta, mb - 1.0, g_ + 1.0)) if a > 0]

        def draw(rng, nb, start):
            clocks = [rng.standard_gamma(shape, nb) for shape, _, _ in pairs]
            o = out[start:start + nb]
            rng.standard_normal(nb, out=o)
            o *= np.sqrt(sum(s2 * v for v, (_, _, s2) in zip(clocks, pairs)))
            o += drift
            for v, (_, theta, _) in zip(clocks, pairs):
                o += theta * v
    else:
        raise NotImplementedError(
            f"no exact MMM sampler for measure type {type(measure).__name__}")
    sizes = _batch_sizes(cfg.n_paths)
    _map(draw, _substreams(cfg.seed), sizes, [0, *accumulate(sizes[:-1])])
    return McSample(log_returns=out, horizon=tau, seed=cfg.seed, method=method)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _per_path(sample: McSample, fill: Callable[..., None],
              n_out: int = 1) -> List[np.ndarray]:
    """``n_out`` per-path arrays ys, filled on the worker pool by
    ``fill(L[part], *(y[part] for y in ys))`` for each slice ``part`` of
    ``_CHUNK`` paths."""
    L = sample.log_returns
    ys = [np.empty(L.size) for _ in range(n_out)]

    def run(start: int) -> None:
        part = slice(start, start + _CHUNK)
        fill(L[part], *(y[part] for y in ys))

    _map(run, range(0, L.size, _CHUNK))
    return ys


def _mean_se(y: np.ndarray) -> McEstimate:
    """Mean and standard error of y, equal bit for bit to y.mean() and
    y.std(ddof=1) / sqrt(n): the same pairwise sums, with the deviations
    squared in y itself, which this overwrites."""
    n = y.size
    mean = y.mean()
    np.subtract(y, mean, out=y)
    np.square(y, out=y)
    return McEstimate(float(mean), math.sqrt(y.sum() / (n - 1)) / math.sqrt(n))


def martingale_from_sample(sample: McSample) -> McEstimate:
    """mean(e^L), which is 1 under the MMM."""
    return _mean_se(*_per_path(sample, np.exp))


def _halve_ties(l: np.ndarray, log_chi: float, y: np.ndarray) -> None:
    """Halve y where L = log chi: a tie counts 1/2 in a step at the strike,
    the midpoint that Fourier inversion gives at a jump of the law."""
    tie = l == log_chi
    if tie.any():
        y[tie] *= 0.5


def i1_from_sample(sample: McSample, chi: float) -> McEstimate:
    log_chi = math.log(_moneyness(chi))

    def fill(l, y):
        np.exp(l, out=y)
        # e^L or +0.0 without a branch per path; the step is taken on L,
        # since e^L rounds to exactly 1.0 for 0 < L < 1.1e-16
        np.multiply(y, l >= log_chi, out=y)
        _halve_ties(l, log_chi, y)

    return _mean_se(*_per_path(sample, fill))


def tail_upper_from_sample(sample: McSample, chi: float) -> McEstimate:
    log_chi = math.log(_moneyness(chi))

    def fill(l, y):
        np.greater_equal(l, log_chi, out=y)
        _halve_ties(l, log_chi, y)

    return _mean_se(*_per_path(sample, fill))


def price_from_sample(sample: McSample, chi: float) -> McEstimate:
    """Call price at unit spot and strike chi."""
    chi = float(_moneyness(chi))

    def fill(l, y):
        np.exp(l, out=y)
        y -= chi
        np.maximum(y, 0.0, out=y)

    return _mean_se(*_per_path(sample, fill))


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


def _node_index(xs: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``q -> np.searchsorted(xs, q, side="right")`` for sorted nodes xs,
    exactly, in O(1) per key that is not NaN.

    The bin of a key, b(q) = floor((q - xs[0]) * _BINS / span) clipped to
    [0, _BINS - 1] and computed in floating point, is non-decreasing in q,
    because every rounded step is.  So a node with b(x) < b(q) lies below q
    and one with b(x) > b(q) above it: the count of nodes <= q is at least
    first[b(q)] = #{x : b(x) < b(q)} and at most first[b(q) + 1].  Starting
    from first[b(q)], each pass adds 1 while the next node is <= q, and as
    many passes as the fullest bin has nodes reach the count.  A NaN past
    the last node stops the passes there for every key, +inf included.
    """
    lo = xs[0]
    scale = _BINS / (xs[-1] - lo)

    def bins(q: np.ndarray) -> np.ndarray:
        t = (q - lo) * scale
        np.clip(t, 0.0, _BINS - 1, out=t)
        return t.astype(np.intp)

    first = np.zeros(_BINS + 1, dtype=np.intp)
    np.cumsum(np.bincount(bins(xs), minlength=_BINS), out=first[1:])
    passes = int(np.diff(first).max())
    xs_pad = np.append(xs, np.nan)

    def index(q: np.ndarray) -> np.ndarray:
        k = first[bins(q)]
        for _ in range(passes):
            k += xs_pad[k] <= q
        return k

    return index


def i2_from_sample(model: MmmModel, sample: McSample, chi: float) -> McI2Estimate:
    """I2 estimate: outer x-integral by fixed Gauss-Legendre quadrature over
    the path-averaged payoff difference, common random numbers across nodes.

    The per-path aggregate Y_i = sum_j coef_j [(s_i e^{x_j} - chi)^+ -
    (s_i - chi)^+], with coef_j = w_j (e^{x_j} - 1) nu(x_j) and s_i = e^{L_i},
    is piecewise linear in s_i:

        Y_i = s_i A(t_i) - chi B(t_i) - C (s_i - chi)^+,  t_i = log(chi) - L_i,

    where A(t) and B(t) are the sums of coef_j e^{x_j} and coef_j over the
    nodes with x_j > t, and C is the sum of all coef_j.  With the nodes
    sorted once, A and B are suffix sums read at the index of t_i among the
    nodes, which ``_node_index`` finds in O(1) per path from a table of
    ``_BINS`` uniform bins; the cost is O(n + m) for n paths and m nodes
    and the memory O(n); no n-by-m payoff matrix is formed.

    Y_i makes the standard error exact in the path dimension; the
    x-quadrature error is estimated by dropping to every other node (the
    half rule, with its own suffix sums) and reported separately.
    """
    chi = float(_moneyness(chi))
    log_chi = math.log(chi)
    measure = model.measure
    if isinstance(measure, ZeroMeasure):
        return McI2Estimate(0.0, 0.0, 0.0)
    xs, ws = _i2_nodes(measure)
    coef = ws * (np.exp(xs) - 1.0) * measure.density(xs)   # full rule
    coef_h = coef.copy()
    coef_h[::2] = 0.0                                # half rule (odd nodes, reweighted)
    coef_h *= 2.0
    order = np.argsort(xs)
    xs, coef, coef_h = xs[order], coef[order], coef_h[order]
    ex = np.exp(xs)
    rules = []
    for c in (coef, coef_h):
        b = _suffix_sums(c)
        rules.append((_suffix_sums(c * ex), chi * b, b[0]))   # A, chi B, C
    index = _node_index(xs)

    def aggregate(l, y_full, y_half):
        k = index(log_chi - l)
        s = np.exp(l)
        itm = np.maximum(s - chi, 0.0)
        for y, (a, chi_b, c_all) in zip((y_full, y_half), rules):
            np.multiply(s, a[k], out=y)
            y -= chi_b[k]
            y -= c_all * itm

    y_full, y_half = _per_path(sample, aggregate, 2)
    est = _mean_se(y_full)
    return McI2Estimate(est.value, est.se, abs(est.value - float(y_half.mean())))
