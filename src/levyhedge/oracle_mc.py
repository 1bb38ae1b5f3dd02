"""Monte Carlo oracle under the minimal martingale measure.

Brute-force verifier for the Fourier engine: simulates the MMM log return
L_tau exactly and estimates I1, I2, tail probabilities, and call prices
with standard errors.  Sampling is exact for both shipped model families:

* Merton: the tilted jump measure (1 - theta_x) nu(dx) is a two-component
  Gaussian mixture of mass Lambda (``MertonMeasure.tilted``).  For nb paths
  a Poisson(Lambda tau nb) total of jumps is placed on uniform paths, which
  gives each path an independent Poisson(Lambda tau) count at a cost that
  follows the jumps, not the paths; the sizes are drawn from the mixture --
  no rejection, no weights.
* Variance gamma: (1 - theta_x) nu(dx) splits the same way into two VG
  measures, (1+beta) VG(C, G, M) and -beta VG(C, G+1, M-1), and each VG law
  at horizon tau is a pair Gamma(a)/r - Gamma(a)/q of one shape a = C tau.
  Each pair is a Brownian motion on a gamma clock (Madan, Carr & Chang,
  1998): theta V + s sqrt(V) Z with V ~ Gamma(a), theta = 1/r - 1/q and
  s^2 = 2/(rq), because (1 - u/r)(1 + u/q) = 1 - theta u - s^2 u^2 / 2
  equates their moment generating functions.  Given both clocks the two
  Gaussian pieces are one Gaussian, so a path takes two gamma variates and
  one normal (one gamma when beta = 0).

Randomness comes from 64 SFC64 substreams spawned from one
``SeedSequence``, each filling its own slice of the sample.

``estimates_from_sample`` reads the sample once, in fixed slices of
``_CHUNK`` paths.  Each slice returns the count, mean and sum of squared
deviations of every quantity from its own arrays, so the pass holds no
path-length array beside the sample, and the slices are merged in slice
order by the pairwise update of Chan, Golub & LeVeque (1983).  Substreams
and slices run on a thread pool of one worker per usable CPU (numpy
releases the GIL in bulk draws, gathers and elementwise work); the pool
starts on first use, and with one CPU the work runs serially.  Every task
writes a disjoint slice or returns its own moments, so every estimate is
reproducible bit for bit for any worker count.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .fourier import _moneyness, _panel_rule
from .levy_core import MmmModel, ZeroMeasure
from .models import MertonMeasure, VgMeasure

__all__ = [
    "McConfig",
    "McSample",
    "McEstimate",
    "McI2Estimate",
    "McStrikeEstimates",
    "McEstimates",
    "simulate_log_returns",
    "estimates_from_sample",
]

_GENERATOR = "numpy.random.SFC64"
_N_BATCHES = 64
# paths per slice of the estimate pass; fixed, so the split never follows
# the worker count
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


# the pass's records are named tuples, which take a fifth of a frozen
# dataclass's time to define at import
class McStrikeEstimates(NamedTuple):
    """Estimates at one strike (moneyness chi, unit spot)."""

    i1: McEstimate
    tail_upper: McEstimate
    price: McEstimate
    i2: McI2Estimate


class McEstimates(NamedTuple):
    """mean(e^L), which is 1 under the MMM, and the estimates per strike."""

    martingale: McEstimate
    strikes: Tuple[McStrikeEstimates, ...]


def _substreams(seed: int) -> List[np.random.Generator]:
    seqs = np.random.SeedSequence(seed).spawn(_N_BATCHES)
    return [np.random.Generator(np.random.SFC64(s)) for s in seqs]


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
            o = out[start:start + nb]
            rng.standard_normal(nb, out=o)
            o *= model.sigma * math.sqrt(tau)
            o += drift
            # Poisson splitting: the total count, then a path per jump
            total = rng.poisson(g_star * tau * nb)
            if total:
                paths = rng.integers(nb, size=total)
                shift = d * d * (rng.random(total) < p2)
                sizes_j = m + shift + d * rng.standard_normal(total)
                o += np.bincount(paths, weights=sizes_j, minlength=nb)
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


# (count, mean, sum of squared deviations) of a per-path quantity
_Moments = Tuple[int, float, float]


def _moments(y: np.ndarray, work: np.ndarray) -> _Moments:
    """The moments of y in two passes, squaring the deviations in work."""
    mean = y.mean()
    np.subtract(y, mean, out=work)
    np.square(work, out=work)
    return y.size, float(mean), float(work.sum())


def _merge(a: _Moments, b: _Moments) -> _Moments:
    """The moments of two samples joined, by the pairwise update of Chan,
    Golub & LeVeque (1983)."""
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    n, delta = na + nb, mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


def _estimate(moments: _Moments) -> McEstimate:
    n, mean, m2 = moments
    return McEstimate(mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n))


def estimates_from_sample(model: MmmModel, sample: McSample,
                          chis: Sequence[float]) -> McEstimates:
    """mean(e^L) and, at each strike chi (unit spot), I1, the upper tail,
    the call price and I2, from one pass over the sample.

    I1 and the tail take a step on L at log chi, where a tie counts 1/2.
    I2's outer x-integral is a fixed Gauss-Legendre quadrature over the
    path-averaged payoff difference, with common random numbers across
    nodes.  The per-path aggregate Y_i = sum_j coef_j [(s_i e^{x_j} - chi)^+
    - (s_i - chi)^+], with coef_j = w_j (e^{x_j} - 1) nu(x_j) and s_i =
    e^{L_i}, is piecewise linear in s_i:

        Y_i = s_i A(t_i) - chi B(t_i) - C (s_i - chi)^+,  t_i = log(chi) - L_i,

    where A(t) and B(t) are the sums of coef_j e^{x_j} and coef_j over the
    nodes with x_j > t, and C is the sum of all coef_j.  With the nodes
    sorted once, A and B are suffix sums read at the index of t_i among the
    nodes, which ``_node_index`` finds in O(1) per path; the cost is O(n +
    m) for n paths and m nodes, and no n-by-m payoff matrix is formed.

    Y_i makes the standard error exact in the path dimension; the
    x-quadrature error is estimated by dropping to every other node (the
    half rule, with its own suffix sums) and reported separately.
    """
    chis = [float(_moneyness(c)) for c in chis]
    measure = model.measure
    tables = []
    if not isinstance(measure, ZeroMeasure):
        xs, ws = _i2_nodes(measure)
        coef = ws * (np.exp(xs) - 1.0) * measure.density(xs)   # full rule
        coef_h = coef.copy()
        coef_h[::2] = 0.0                            # half rule (odd nodes, reweighted)
        coef_h *= 2.0
        order = np.argsort(xs)
        xs, coef, coef_h = xs[order], coef[order], coef_h[order]
        ex = np.exp(xs)
        index = _node_index(xs)
        tables = [(_suffix_sums(c * ex), _suffix_sums(c)) for c in (coef, coef_h)]
    # per strike: chi, log chi and (A, chi B, C) of each I2 rule
    strikes = [(chi, math.log(chi), [(a, chi * b, b[0]) for a, b in tables])
               for chi in chis]
    L = sample.log_returns

    def moments_of_slice(start: int) -> List[_Moments]:
        l = L[start:start + _CHUNK]
        # the slice's arrays are made once and reused for every quantity
        s, step, itm, y, work = (np.empty_like(l) for _ in range(5))
        np.exp(l, out=s)
        out = [_moments(s, work)]
        for chi, log_chi, rules in strikes:
            # the step is taken on L, since e^L rounds to exactly 1.0 for
            # 0 < L < 1.1e-16, and a tie counts 1/2, the midpoint that
            # Fourier inversion gives at a jump of the law
            np.greater_equal(l, log_chi, out=step)
            tie = l == log_chi
            if tie.any():
                step[tie] = 0.5
            np.multiply(s, step, out=y)
            np.subtract(s, chi, out=itm)
            np.maximum(itm, 0.0, out=itm)
            out += [_moments(y, work), _moments(step, work), _moments(itm, work)]
            if rules:
                k = index(log_chi - l)
                for a, chi_b, c_all in rules:
                    np.take(a, k, out=y)
                    y *= s
                    y -= np.take(chi_b, k, out=work)
                    y -= np.multiply(itm, c_all, out=work)
                    out.append(_moments(y, work))
        return out

    slices = _map(moments_of_slice, range(0, L.size, _CHUNK))
    merged = iter([reduce(_merge, col) for col in zip(*slices)])
    martingale = _estimate(next(merged))
    found = []
    for _ in chis:
        i1, tail, price = (_estimate(next(merged)) for _ in range(3))
        i2 = McI2Estimate(0.0, 0.0, 0.0)
        if tables:
            full, half = _estimate(next(merged)), next(merged)
            i2 = McI2Estimate(full.value, full.se, abs(full.value - half[1]))
        found.append(McStrikeEstimates(i1, tail, price, i2))
    return McEstimates(martingale, tuple(found))
