"""Damped Fourier transforms of the hedging building blocks.

Every quantity here is an integral of the form

    (prefactor(k) / pi) * Re  integral_0^inf  e^{-i v k} psi(v) dv,
    k = log(moneyness),

where psi carries the MMM characteristic function phi_tau(v - i*alpha) and a
kind-specific rational factor, in two parts:

* a "head" over [0, _V_MAX] (_V_MAX = 409.6);
* a "tail" beyond _V_MAX.  Diffusive models (sigma > 0) decay like a
  Gaussian and the head is simply extended to the Gaussian cutoff; pure-jump
  models decay only algebraically (|phi| ~ v^{-q} with q possibly < 1), so
  the tail integral is taken down a rotated contour _V_MAX -+ i*s where the
  integrand decays like e^{-s |k - carrier|}.  Skipping the tail can leave
  absolute errors of order 1e-2 for short horizons.

Two evaluators share those integrands:

* ``transform_batch``, the production engine (``call_prices`` is its
  "price" kind for calibration).  It samples phi once on fixed
  Gauss-Legendre panels -- graded toward v = 0, then at most 24 wide -- and
  on geometric s-panels of both contours, and prices every kind at every
  moneyness from those samples.  At k = carrier the contour integrand
  decays only like s^-(1 + 2 C tau); past the last node the engine adds the
  closed-form integral of its 1/w-series asymptote.  err_est is the
  prefactor times the sum over panels of |32-node - 16-node rule| plus a
  rounding budget and the last asymptote term.
* ``transform``, adaptive QUADPACK at one moneyness: the reference oracle
  of the tests and of the benchmark gates, and the only source of the
  QUADPACK flags (``head``, ``head-osc``, ``tail``, ``tail-osc``,
  ``tail-rot``).

Both apply the same checks to each result: the ``alpha-fallback`` of the
tail kind in a narrow strip, StripError for other kinds, ``clamped`` for
values just outside a kind's range, and AccuracyError for a value or error
estimate that is not finite or an error estimate above 1e-5.  Only this
module knows the integrands, prefactors, Gaussian cutoff and contour
directions.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from .levy_core import (
    AccuracyError,
    DivergenceError,
    MmmModel,
    StripError,
    _exp,
    mmm_cumulant,
)

__all__ = [
    "FourierConfig",
    "CharFn",
    "FourierResult",
    "ConditionIntegral",
    "char_fn",
    "transform",
    "transform_batch",
    "call_price",
    "call_prices",
    "theorem4_condition_integral",
]

# |k| above which the head quadrature switches to oscillatory (QAWO) rules
_OSC_THRESHOLD = 0.25
# clamp policy: excursions beyond bounds up to this size are rounded off,
# larger ones raise AccuracyError
_CLAMP_TOL = 1e-8
# end of the head quadrature and start of the analytic tail
_V_MAX = 409.6
# QUADPACK tolerances of every reference transform quadrature
_EPSABS = 1e-12
_EPSREL = 1e-9
# a transform whose error estimate exceeds this raises AccuracyError
_ACCURACY_LIMIT = 1e-5
# scalar points a characteristic function remembers before it starts over
_MEMO_SIZE = 4096


@dataclass(frozen=True)
class FourierConfig:
    """The damping exponent alpha in (1, 2] of the transforms."""

    alpha: float = 1.75

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")


@dataclass(frozen=True)
class CharFn:
    """Characteristic function z -> E*[e^{i z L_tau}] = exp(tau * Psi*(z)).

    strip_im   -- open interval of Im(z) where the expectation exists;
    sigma      -- Brownian volatility (drives the tail strategy);
    fn_analytic-- analytic continuation usable at complex v off the strip;
    carrier    -- asymptotic linear phase rate of log phi along the real
                  axis, tau*(b* - m1*); 0 for subordinated pure-jump models;
    asymptote  -- for pure-jump models whose jump transform is a sum of
                  logarithms (variance gamma), a callable returning the
                  1/w-series of log phi on the rotated contours and the
                  |w| past which it converges.
    """

    fn: Callable
    horizon: float
    strip_im: Tuple[float, float]
    sigma: float
    fn_analytic: Callable
    carrier: float = 0.0
    asymptote: Optional[Callable] = None

    def __call__(self, z):
        return self.fn(z)


def char_fn(model: MmmModel, horizon: float) -> CharFn:
    """Build the MMM characteristic function of L over ``horizon``, after
    checking the martingale identity phi(0) = phi(-i) = 1.

    ``fn`` and ``fn_analytic`` memoize scalar arguments, so that the
    reference quadratures, which evaluate phi at the same points again and
    again (the cos/sin pair of an oscillatory rule, the re/im pair of a
    contour, the kinds of one strike), evaluate each point once.  Arrays
    bypass the memo; it holds at most _MEMO_SIZE points, and it lives and
    dies with its CharFn.
    """
    phi = _char_fn(model, horizon)
    _check_martingale(model, horizon)
    return phi


def _char_fn(model: MmmModel, horizon: float) -> CharFn:
    """``char_fn`` without the martingale check."""
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if model.sigma == 0.0 and model.measure.is_zero:
        raise ValueError("degenerate deterministic model has no density; "
                         "Fourier inversion does not apply")

    @_memoized
    def fn(z):
        return _exp(horizon * mmm_cumulant(model, z))

    @_memoized
    def fn_analytic(z):
        return _exp(horizon * mmm_cumulant(model, z, check_strip=False))

    carrier = horizon * (model.drift_star - model.m1_star) if model.sigma == 0.0 else 0.0
    return CharFn(fn=fn, horizon=horizon, strip_im=model.strip(),
                  sigma=model.sigma, carrier=carrier, fn_analytic=fn_analytic,
                  asymptote=_asymptote_of(model, horizon))


def _check_martingale(model: MmmModel, horizon: float) -> None:
    """phi_tau(0) = phi_tau(-i) = 1 to 1e-10 for every tau <= horizon, as
    |Psi(0)| and |Psi(-i)| <= 1e-10 / horizon."""
    worst = max(abs(mmm_cumulant(model, 0.0)), abs(mmm_cumulant(model, -1j)))
    if not worst * horizon <= 1e-10:
        raise AccuracyError("characteristic function violates phi(0) = "
                            "phi(-i) = 1; the MMM transform is inconsistent")


def _memoized(f: Callable) -> Callable:
    """f with a memo of its scalar arguments (see ``char_fn``), cleared
    when it is full.  Since 0.0 == -0.0, a point with a zero coordinate
    keys on the signs of its coordinates as well."""
    memo: dict = {}

    def fn(z):
        if isinstance(z, np.ndarray):
            return f(z)
        key = z if z.real and (z.imag or type(z) is float) else (
            z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))
        out = memo.get(key)
        if out is None:
            if len(memo) >= _MEMO_SIZE:
                memo.clear()
            out = memo[key] = f(z)
        return out
    fn.memo = memo
    return fn


@dataclass(frozen=True)
class FourierResult:
    value: float
    err_est: float
    flags: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ConditionIntegral:
    """Integral of |phi(v - 2i)| / (1 + v): head nodes plus tail past them,
    and the p of |phi(v - 2i)| ~ v^-p (inf for a diffusive model)."""

    value: float
    tail_estimate: float
    err_est: float
    decay_power: float

    @property
    def total(self) -> float:
        return self.value + self.tail_estimate


# ---------------------------------------------------------------------------
# psi factories and prefactors per transform kind
# ---------------------------------------------------------------------------

def _make_psi(kind: str, phi: CharFn, alpha: float, model: Optional[MmmModel],
              analytic: bool = False):
    f = phi.fn_analytic if analytic else phi.fn
    _check_kind(kind, model)

    @_memoized
    def psi(v):
        return _kind_psi(kind, alpha, 1j * v, f(v - 1j * alpha), model,
                         check=not analytic)
    return psi


def _prefactor(kind: str, alpha: float, k: float) -> float:
    if kind == "tail":
        return math.exp(-alpha * k) / math.pi
    return math.exp((1.0 - alpha) * k) / math.pi


def _clamped(kind: str, value: float, err: float,
             flags: List[str]) -> float:
    lo, hi = {"i1": (0.0, 1.0), "tail": (0.0, 1.0),
              "price": (0.0, math.inf), "i2": (0.0, math.inf)}[kind]
    tol = max(_CLAMP_TOL, 10.0 * err)
    if value < lo:
        if lo - value > tol:
            raise AccuracyError(
                f"{kind} transform left its range by {lo - value:.3g} "
                f"(err estimate {err:.3g})")
        flags.append("clamped")
        return lo
    if value > hi:
        if value - hi > tol:
            raise AccuracyError(
                f"{kind} transform left its range by {value - hi:.3g} "
                f"(err estimate {err:.3g})")
        flags.append("clamped")
        return hi
    return value


# ---------------------------------------------------------------------------
# head and tail quadratures
# ---------------------------------------------------------------------------

def _quad(f, a, b, flags: List[str], tag: str, weight=None, wvar=None):
    from scipy.integrate import quad
    kwargs = dict(epsabs=_EPSABS, epsrel=_EPSREL, limit=800,
                  full_output=1)
    if weight is not None:
        kwargs.update(weight=weight, wvar=wvar, maxp1=100)
    out = quad(f, a, b, **kwargs)
    val, err = out[0], out[1]
    if len(out) > 3:
        # quadpack reported trouble; keep the value, surface the condition
        flags.append(tag)
    return val, err


def _segment(psi, k: float, a: float, b: float, flags: List[str],
             tag: str) -> Tuple[float, float]:
    """Real part of integral_a^b e^{-ivk} psi(v) dv.  ``tag`` ("head" or
    "tail") names the quadpack flag; the oscillatory (QAWO) route for
    |k| >= _OSC_THRESHOLD appends "-osc" to it."""
    if abs(k) >= _OSC_THRESHOLD:
        vc, ec = _quad(lambda v: psi(v).real, a, b, flags,
                       tag + "-osc", weight="cos", wvar=k)
        vs, es = _quad(lambda v: psi(v).imag, a, b, flags,
                       tag + "-osc", weight="sin", wvar=k)
        return vc + vs, ec + es
    return _quad(lambda v: (cmath.exp(-1j * v * k) * psi(v)).real,
                 a, b, flags, tag)


def _gauss_cutoff(phi: CharFn, alpha: float) -> float:
    # v beyond which |phi(v - i alpha)| < ~1e-20 from the Brownian part alone
    return math.sqrt(90.0 / (phi.horizon * phi.sigma**2) + alpha**2)


def _tail(kind: str, phi: CharFn, model: Optional[MmmModel], alpha: float,
          k: float, v_start: float, flags: List[str],
          psi: Callable) -> Tuple[float, float]:
    """Re of integral_{v_start}^inf e^{-ivk} psi(v) dv, plus error estimate."""
    if phi.sigma > 0.0:
        v2 = _gauss_cutoff(phi, alpha)
        if v2 <= v_start:
            return 0.0, 0.0
        return _segment(psi, k, v_start, v2, flags, "tail")
    return _tail_contour(kind, phi, model, alpha, k, v_start, flags)


def _tail_contour(kind: str, phi: CharFn, model: Optional[MmmModel],
                  alpha: float, k: float, v_start: float,
                  flags: List[str]) -> Tuple[float, float]:
    """Rotate the tail onto a vertical contour v_start -+ i s.

    Downward for k above the carrier rate, upward below it; either way
    e^{-ivk} turns into exponential decay in s while phi keeps its algebraic
    decay, and every branch point of the continued integrand sits on the
    imaginary axis, far from the contour.
    """
    psi = _make_psi(kind, phi, alpha, model, analytic=True)
    down = k >= phi.carrier

    def f(s):
        v = v_start - 1j * s if down else v_start + 1j * s
        return _exp(-1j * v * k) * psi(v)

    rot = -1j if down else 1j
    vr, er = _quad(lambda s: f(s).real, 0.0, np.inf, flags, "tail-rot")
    vi, ei = _quad(lambda s: f(s).imag, 0.0, np.inf, flags, "tail-rot")
    val = (rot * (vr + 1j * vi)).real
    return val, er + ei


# ---------------------------------------------------------------------------
# single-point reference path
# ---------------------------------------------------------------------------

def transform(kind: str, phi: CharFn, chi: float, cfg: FourierConfig,
              model: Optional[MmmModel] = None) -> FourierResult:
    """Reference (adaptive-quadrature) evaluation of one transform at one
    moneyness.  A value or error estimate that is not finite, or an error
    estimate above the accuracy limit, raises AccuracyError."""
    if chi <= 0:
        raise ValueError(f"moneyness must be > 0, got {chi}")
    a, flags = _damping(kind, phi, cfg.alpha)

    if kind == "i2" and model is not None and model.measure.is_zero:
        return FourierResult(0.0, 0.0, ())

    k = math.log(chi)
    psi = _make_psi(kind, phi, a, model)
    head, err_h = _segment(psi, k, 0.0, _V_MAX, flags, "head")
    tail, err_t = _tail(kind, phi, model, a, k, _V_MAX, flags, psi)
    pre = _prefactor(kind, a, k)
    return _result(kind, chi, pre * (head + tail), pre * (err_h + err_t), flags)


def _result(kind: str, chi: float, value: float, err: float,
            flags: List[str]) -> FourierResult:
    """The checks every transform result passes: a value or error estimate
    that is not finite, or an error estimate above the accuracy limit,
    raises AccuracyError; a value just outside the kind's range is clamped.
    """
    if not (math.isfinite(value) and math.isfinite(err)):
        raise AccuracyError(
            f"{kind} transform is not finite (value {value!r}, err estimate "
            f"{err!r}) at chi={chi}")
    if err > _ACCURACY_LIMIT:
        raise AccuracyError(
            f"{kind} transform error estimate {err:.3g} exceeds the "
            f"accuracy limit {_ACCURACY_LIMIT:.3g} at chi={chi}")
    return FourierResult(_clamped(kind, value, err, flags), err, tuple(flags))


def call_price(phi: CharFn, spot: float, strike: float,
               cfg: FourierConfig) -> float:
    """Zero-rate call price E*[(S_T - K)^+] via its own damped transform.

    Equals spot * (I1 - chi * p*([log chi, inf))) by partial fractions;
    computed as a single transform of the call payoff.
    """
    if spot <= 0 or strike <= 0:
        raise ValueError("spot and strike must be positive")
    return spot * transform("price", phi, strike / spot, cfg).value


# ---------------------------------------------------------------------------
# fixed-node batch engine
# ---------------------------------------------------------------------------

# head panel edges graded toward v = 0 for alpha = 1.75, scaled by
# (alpha - 1) / 0.75, so that the panels resolve the poles of the kind
# factors at i(alpha - 1) and i*alpha; 24-wide panels follow
_HEAD_GRADING = (0.5, 1.5, 3.5, 7.5, 15.5, 24.0)
_HEAD_WIDTH = 24.0
# |log-moneyness| up to which _HEAD_WIDTH holds; beyond it the head panels
# narrow in proportion, so e^{-ivk} turns by the same angle per panel
_WIDTH_K = 0.75
# rotated-contour s-panels: geometric from _S_FIRST by _S_RATIO up to
# _S_END, or to where e^{s |carrier|} reaches e^_S_EXP, whichever is first
_S_FIRST, _S_RATIO, _S_END, _S_EXP = 0.5, 1.6, 2.0e5, 600.0
# a contour strike whose decay e^{-s |k - carrier|} keeps more than e^-_S_DECAY
# at the last node gets the closed-form asymptote past it
_S_DECAY = 40.0
# terms of the 1/w series of that asymptote
_ASYM_TERMS = 16
# the condition integral's closed-form tail starts this many times out the
# radius in v of its series (the asymptote's r + 2 on w = 2 + iv), where
# each term is at most 1/8 of the one before, but at most at
# _TAIL_START_MAX; a series still diverging there fails its error budget
_TAIL_REACH, _TAIL_START_MAX = 8.0, 1.0e5
# rounding budget of a node sum, per unit of the sum of its |terms|
_ROUNDING = 50.0 * np.finfo(float).eps


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    return leggauss(n)


def _panel_rule(edges, errors: bool = False, n: int = 32):
    """Gauss-Legendre rule on each panel as (panels, m) arrays of nodes,
    weights and error weights.  Each panel holds the n nodes of the value
    rule; with ``errors`` (n = 32) also the 16 of the nested rule, and the
    error weights give the 32-node minus the 16-node sum (None without)."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    x, w = _legendre(n)
    if not errors:
        return mid + half * x, half * w, None
    x16, w16 = _legendre(16)
    nodes = mid + half * np.concatenate([x, x16])
    return (nodes, half * np.concatenate([w, np.zeros(16)]),
            half * np.concatenate([w, -w16]))


def _check_kind(kind: str, model: Optional[MmmModel]) -> None:
    if kind not in ("i1", "tail", "price", "i2"):
        raise ValueError(f"unknown transform kind {kind!r}")
    if kind == "i2" and model is None:
        raise ValueError("i2 requires the MmmModel for the jump transform")


def _kind_psi(kind: str, alpha: float, iv, phi_v, model: Optional[MmmModel],
              check: bool = True):
    """phi times the rational factor of each kind at w = iz = alpha + iv;
    i2's factor holds the jump transform of (e^{wx} - 1)(e^x - 1) against
    the base measure."""
    if kind == "i1":
        return phi_v / (alpha - 1.0 + iv)
    if kind == "tail":
        return phi_v / (alpha + iv)
    if kind == "price":
        return phi_v / ((alpha - 1.0 + iv) * (alpha + iv))
    g = model.measure.exp_moment
    w = alpha + iv
    inner = g(w + 1.0, check=check) - g(w, check=check) - model.exp_moment_1
    return inner * phi_v / ((alpha - 1.0 + iv) * (alpha + iv))


def _log1p_series(x: complex) -> np.ndarray:
    """Coefficients of log(1 + x u) in powers u^0 .. u^_ASYM_TERMS."""
    n = np.arange(1, _ASYM_TERMS + 1)
    return np.concatenate([[0.0], -(-x) ** n / n]).astype(complex)


def _exp_series(h: np.ndarray) -> np.ndarray:
    """Coefficients of exp(h(u)) for a series h with h(0) = 0."""
    e = np.zeros_like(h)
    e[0] = 1.0
    for n in range(1, h.size):
        j = np.arange(1, n + 1)
        e[n] = np.dot(j * h[j], e[n - j]) / n
    return e


def _asymptote_of(model: MmmModel, horizon: float) -> Optional[Callable]:
    """The ``CharFn.asymptote`` of a model: None unless it is pure-jump with
    a measure of ``log_terms``; computed only when a strike needs it."""
    if model.sigma != 0.0 or not getattr(model.measure, "log_terms", None):
        return None
    return functools.partial(_contour_asymptote, model, horizon)


def _contour_asymptote(model: MmmModel, horizon: float):
    """(K0, p, h, r) with log phi(z) - w*carrier = K0 - p log w + sum_n h_n
    w^-n on the rotated contours (w = iz, Im w > 0), for a measure whose
    exp_moment is a sum of c (log a - log(a + s w)) terms; the series
    converges for |w| > r.  Each log(a + s w) splits into log w - i pi
    [s < 0] + log(1 + a/(s w))."""
    terms = model.measure.log_terms
    beta = model.beta
    k0 = beta * complex(model.exp_moment_1)
    h = np.zeros(_ASYM_TERMS + 1, dtype=complex)
    for c, a, s in terms:
        k0 += c * (math.log(a) + (1j * math.pi if s < 0 else 0.0))
        h -= c * ((1.0 + beta) * _log1p_series(a / s)
                  - beta * _log1p_series((a + s) / s))
    radius = max(max(abs(a / s), abs((a + s) / s)) for _, a, s in terms)
    return (horizon * k0, horizon * sum(c for c, _, _ in terms), horizon * h,
            radius)


def _kind_series(kind: str, model: Optional[MmmModel]) -> np.ndarray:
    """The kind factor as a series in u = 1/w."""
    n = _ASYM_TERMS + 1
    geometric = np.concatenate([[0.0], np.ones(n - 1)])       # u / (1 - u)
    if kind == "i1":
        return geometric.astype(complex)
    if kind == "tail":
        return np.eye(n, dtype=complex)[1]
    price = np.concatenate([[0.0], geometric[:-1]]).astype(complex)
    if kind == "price":
        return price
    inner = np.zeros(n, dtype=complex)
    inner[0] = -complex(model.exp_moment_1)
    for c, a, s in model.measure.log_terms:
        inner += c * (_log1p_series(a / s) - _log1p_series((a + s) / s))
    return np.convolve(inner, price)[:n]


def _asymptote_tail(kind: str, phi: CharFn, model: Optional[MmmModel],
                    alpha: float, k: float, s_end: float) -> Tuple[complex, float]:
    """Contour integral past s_end of the closed-form asymptote of the
    integrand, before rotation, and the size of its last series term.

    On the contour the integrand is e^{alpha k - (k - carrier) w} F(w)
    phi-part, and the phi-part is w^-p times a series in 1/w.  At k =
    carrier each power integrates in closed form; otherwise the factor
    e^{-|k - carrier| s} is integrated on geometric s-panels until it has
    decayed.
    """
    k0, p, h, _ = phi.asymptote()
    b = np.convolve(_kind_series(kind, model), _exp_series(h))[:_ASYM_TERMS + 1]
    n = np.arange(_ASYM_TERMS + 1)
    delta = k - phi.carrier
    start = complex(alpha, _V_MAX) + (s_end if delta >= 0.0 else -s_end)
    scale = cmath.exp(alpha * k + k0 - delta * start)
    last = abs(scale * b[-1] * start ** (1.0 - p - n[-1]) / (p + n[-1] - 1.0))
    if delta == 0.0:
        terms = b[1:] * start ** (1.0 - p - n[1:]) / (p + n[1:] - 1.0)
        return scale * terms.sum(), last
    span = math.log2(1.0 + 1.5 * _S_DECAY / (abs(delta) * s_end))
    edges = s_end * 2.0 ** np.arange(min(math.ceil(span), 1000) + 1)
    s, ws, _ = _panel_rule(edges)
    w = complex(alpha, _V_MAX) + (s if delta > 0.0 else -s)
    f = np.exp(alpha * k + k0 - delta * w - p * np.log(w)) \
        * np.polynomial.polynomial.polyval(1.0 / w, b)
    return (ws * f).sum(), last


class _Nodes:
    """The fixed nodes of the engine for one damping line.

    Head: Gauss-Legendre panels over [0, v_end], graded toward v = 0, then
    at most _HEAD_WIDTH wide.  Pure-jump models add the two rotated
    contours _V_MAX -+ i s on shared geometric s-panels over [0, s_end].
    ``paths`` lists (name, v, weights, error weights, rotation) with v the
    (panels, m) array of transform variables; phi is sampled at v - i alpha.
    """

    def __init__(self, alpha: float, v_end: float, s_end: Optional[float],
                 k_max: float, errors: bool):
        self.alpha = alpha
        self.s_end = s_end
        width = _HEAD_WIDTH * min(1.0, _WIDTH_K / max(k_max, 1e-300))
        graded = np.array(_HEAD_GRADING) * (alpha - 1.0) / 0.75
        edges = [0.0]
        for hi in np.concatenate([graded, [v_end]]):
            n = math.ceil((hi - edges[-1]) / width)
            edges += list(np.linspace(edges[-1], hi, n + 1)[1:])
        self.edges = np.array(edges)
        v, w, d = _panel_rule(self.edges, errors)
        self.paths = [("head", v, w, d, 1.0)]
        if s_end is not None:
            geo = _S_FIRST * _S_RATIO ** np.arange(
                math.ceil(math.log(max(s_end, _S_FIRST) / _S_FIRST)
                          / math.log(_S_RATIO)))
            s, ws, ds = _panel_rule(
                np.concatenate([[0.0], geo[geo < s_end], [s_end]]), errors)
            self.paths += [("down", _V_MAX - 1j * s, ws, ds, -1j),
                           ("up", _V_MAX + 1j * s, ws, ds, 1j)]

    def head_panels(self, v_end: float) -> int:
        """Number of head panels up to the first that reaches v_end."""
        return int(np.searchsorted(self.edges[1:], v_end) + 1)

    def sample(self, phi: CharFn):
        """phi at every node: fn on the head, the continuation on the
        contours."""
        out = [phi.fn(self.paths[0][1] - 1j * self.alpha)]
        if self.s_end is not None:
            out += [phi.fn_analytic(v - 1j * self.alpha)
                    for _, v, _, _, _ in self.paths[1:]]
        return out

    def integrate(self, kind: str, samples, k: np.ndarray, carrier: float,
                  model: Optional[MmmModel], phases=None,
                  n_head: Optional[int] = None, factors=None):
        """Re of integral_0^inf e^{-ivk} psi(v) dv per log-moneyness k, the
        sum of the per-panel error estimates (zero without the nested rule)
        and the contraction of ``factors`` (None without them).

        Strikes with k >= carrier take the downward contour, the others the
        upward one.  ``phases`` caches e^{-ivk} on every node across calls
        with the same k; ``n_head`` keeps only the first head panels
        (``samples[0]`` holds just theirs).  ``factors``, per path a (q,
        panels, m) array shaped like its samples, gives the (q, strikes)
        integrals of psi times each factor: one matmul per path of the
        factors times the weighted integrand that the value contracts.
        """
        down = k >= carrier
        value = np.zeros(k.size)
        err = np.zeros(k.size)
        columns = None if factors is None else np.zeros((len(factors[0]),
                                                         k.size))
        for i, (name, v, w, d, rot) in enumerate(self.paths):
            sel = (slice(None) if name == "head"
                   else down if name == "down" else ~down)
            kk = k[sel]
            if kk.size == 0:
                continue
            ph = None if phases is None else phases.get(name)
            if ph is None:
                ph = np.multiply.outer(-1j * kk, v)
                np.exp(ph, out=ph)
                if phases is not None:
                    phases[name] = ph
            if name == "head" and n_head is not None:
                v, w, ph = v[:n_head], w[:n_head], ph[:, :n_head]
                d = None if d is None else d[:n_head]
            f = _kind_psi(kind, self.alpha, 1j * v, samples[i], model,
                          check=name == "head")
            wf = w * f
            value[sel] += (rot * np.einsum("spm,pm->s", ph, wf)).real
            if factors is not None:
                fw = (factors[i] * wf).reshape(columns.shape[0], -1)
                columns[:, sel] += (rot * (fw @ ph.reshape(kk.size, -1).T)).real
            if d is not None:
                # |e^{-ivk}| = 1 on the head
                mag = (np.abs(wf).sum() if name == "head" else
                       np.einsum("spm,pm->s", np.abs(ph), np.abs(wf)))
                err[sel] += (np.abs(np.einsum("spm,pm->sp", ph, d * f)).sum(axis=1)
                             + _ROUNDING * mag)
        return value, err, columns


def _node_range(phi: CharFn, alpha: float) -> Tuple[float, Optional[float]]:
    """Head end and contour end (None for a diffusive model) of phi.  A
    diffusive head ends on the first multiple of _HEAD_WIDTH past the graded
    panels that reaches the Gaussian cutoff, so nearby cutoffs share nodes."""
    if phi.sigma > 0.0:
        graded = _HEAD_GRADING[-1] * (alpha - 1.0) / 0.75
        cut = max(_V_MAX, _gauss_cutoff(phi, alpha))
        return graded + _HEAD_WIDTH * math.ceil((cut - graded) / _HEAD_WIDTH), None
    if phi.carrier == 0.0:
        return _V_MAX, _S_END
    return _V_MAX, min(_S_END, _S_EXP / abs(phi.carrier))


def _tails(kind: str, phi: CharFn, model: Optional[MmmModel], alpha: float,
           k: np.ndarray, s_end: Optional[float]):
    """Asymptote contributions past the contour's last node, for the strikes
    whose contour integrand has not decayed there; a strike that needs one
    without a closed-form asymptote gets NaN, so it fails its checks."""
    value = np.zeros(k.size)
    err = np.zeros(k.size)
    if s_end is None:
        return value, err
    for i in np.flatnonzero(np.abs(k - phi.carrier) * s_end < _S_DECAY):
        if phi.asymptote is None:
            value[i] = err[i] = math.nan
            continue
        tail, last = _asymptote_tail(kind, phi, model, alpha, k[i], s_end)
        rot = -1j if k[i] >= phi.carrier else 1j
        value[i] = (rot * tail).real
        err[i] = last
    return value, err


def _damping(kind: str, phi: CharFn, alpha: float) -> Tuple[float, List[str]]:
    """The damping line of a kind and its flags; only the tail falls back
    to a line inside a narrow strip, the other kinds raise StripError."""
    lo, hi = phi.strip_im
    if lo < -alpha < hi:
        return alpha, []
    if kind == "tail":
        if not (lo < -1.0):
            raise StripError(
                f"no damping line in (1, 2] fits the strip ({lo}, {hi})")
        a = 0.5 * (1.0 + min(2.0, -lo - 1e-9))
        return a, [f"alpha-fallback:{a:.6g}"]
    raise StripError(
        f"damping line Im(z) = -{alpha} outside the strip ({lo}, {hi})")


def transform_batch(kinds: Sequence[str], phi: CharFn, chis: Sequence[float],
                    cfg: FourierConfig, model: Optional[MmmModel] = None
                    ) -> Dict[str, Tuple[Union[FourierResult, Exception], ...]]:
    """Every transform of ``kinds`` at every moneyness, from one set of
    fixed nodes.

    phi is sampled once per damping line; each kind multiplies the samples
    by its own rational factor, and e^{-ivk} is shared across kinds.  Each
    entry is the FourierResult of one moneyness, checked as ``transform``
    checks its result, or the exception that moneyness raised (an
    AccuracyError for a value or error estimate that is not finite or an
    error estimate above the accuracy limit); an exception of a whole kind
    (StripError) fills every entry of that kind.  err_est is the prefactor
    times the sum over panels of |32-node - 16-node|, plus a rounding
    budget and the size of the last asymptote term.
    """
    chis = np.asarray(chis, dtype=float)
    if np.any(chis <= 0):
        raise ValueError("moneyness must be > 0")
    k = np.log(chis)
    out: Dict[str, Tuple[Union[FourierResult, Exception], ...]] = {}
    lines: Dict[float, List[Tuple[str, List[str]]]] = {}
    for kind in kinds:
        _check_kind(kind, model)
        try:
            a, flags = _damping(kind, phi, cfg.alpha)
        except StripError as exc:
            out[kind] = (exc,) * k.size
            continue
        if kind == "i2" and model.measure.is_zero:
            out[kind] = (FourierResult(0.0, 0.0, ()),) * k.size
            continue
        lines.setdefault(a, []).append((kind, flags))
    for a, group in lines.items():
        v_end, s_end = _node_range(phi, a)
        nodes = _Nodes(a, v_end, s_end, float(np.abs(k).max(initial=0.0)),
                       errors=True)
        samples = nodes.sample(phi)
        phases: Dict[str, np.ndarray] = {}
        for kind, flags in group:
            value, err, _ = nodes.integrate(kind, samples, k, phi.carrier,
                                            model, phases)
            tail, tail_err = _tails(kind, phi, model, a, k, s_end)
            pre = [_prefactor(kind, a, x) for x in k]
            out[kind] = tuple(
                _checked(kind, float(c), float(p * (v + t)), float(p * (e + te)),
                         list(flags))
                for c, p, v, t, e, te in zip(chis, pre, value, tail, err, tail_err))
    return {kind: out[kind] for kind in kinds}


def _checked(kind: str, chi: float, value: float, err: float,
             flags: List[str]) -> Union[FourierResult, AccuracyError]:
    try:
        return _result(kind, chi, value, err, flags)
    except AccuracyError as exc:
        return exc


def call_prices(model: MmmModel, spot: float, expiries: Sequence[float],
                strikes: Sequence[np.ndarray], cfg: FourierConfig,
                cache: Optional[dict] = None, dpsi: Optional[Callable] = None):
    """Zero-rate call prices E*[(S_tau - K)^+] of one model at several
    expiries, ``strikes[j]`` at ``expiries[j]``: the engine's "price" kind
    without error estimates.

    The MMM cumulant Psi is sampled once on nodes shared by every expiry,
    and phi_tau = exp(tau Psi); for a diffusive model each expiry uses the
    head panels up to its own Gaussian cutoff.  The martingale identity is
    checked once, on Psi, for the longest expiry, which covers the others.
    A caller that prices the same strikes again and again (a calibration)
    may pass the same ``cache`` dict each time: it keeps the nodes and
    e^{-ivk} while they stay valid.  A price that is not finite, or leaves
    [0, inf) by more than the clamp tolerance, raises AccuracyError.

    With ``dpsi``, a map from z and the base moments (g(w), g(w + 1)) at
    w = iz that ``mmm_cumulant`` computed for Psi to the derivatives of Psi
    along n parameters (an (n, *z.shape) array), the result is the pair
    (prices, jacobians), ``jacobians[j]`` the (strikes, n) derivatives of
    the prices at ``expiries[j]``: tau times the price integrand, times
    dPsi, contracted with the same e^{-ivk} in one matmul per path beside
    the prices, which stay bit-identical.  The closed-form asymptote past
    the last contour node, which only strikes next to the carrier take
    (``_tails``), is left out of the derivatives.
    """
    phis = [_char_fn(model, tau) for tau in expiries]
    _check_martingale(model, max(expiries))
    logs = [np.log(np.asarray(s, dtype=float) / spot) for s in strikes]
    a = cfg.alpha
    lo, hi = model.strip()
    if not (lo < -a < hi):
        raise StripError(
            f"damping line Im(z) = -{a} outside the strip ({lo}, {hi})")
    ranges = [_node_range(p, a) for p in phis]
    s_ends = [s for _, s in ranges if s is not None]
    key = (a, max(v for v, _ in ranges), min(s_ends) if s_ends else None,
           tuple(x.tobytes() for x in logs), tuple(p.carrier for p in phis))
    cache = {} if cache is None else cache
    if cache.get("key") != key:
        cache.clear()
        cache["key"] = key
        cache["nodes"] = _Nodes(a, key[1], key[2],
                                max(float(np.abs(x).max()) for x in logs),
                                errors=False)
    nodes = cache["nodes"]
    zs = [v - 1j * a for _, v, _, _, _ in nodes.paths]
    sampled = [mmm_cumulant(model, z, check_strip=path[0] == "head",
                            moments=True) for path, z in zip(nodes.paths, zs)]
    psi = [p[0] for p in sampled]
    grads = None if dpsi is None else [dpsi(z, p[1:])
                                       for z, p in zip(zs, sampled)]
    out, jacobians = [], []
    for j, (phi, (v_end, _), k) in enumerate(zip(phis, ranges, logs)):
        n = nodes.head_panels(v_end)
        samples = [np.exp(phi.horizon * psi[0][:n])] \
            + [np.exp(phi.horizon * p) for p in psi[1:]]
        phases = cache.setdefault(j, {})
        value, _, columns = nodes.integrate(
            "price", samples, k, phi.carrier, None, phases, n_head=n,
            factors=None if grads is None else [grads[0][:, :n]] + grads[1:])
        tail, _ = _tails("price", phi, None, a, k, nodes.s_end)
        pre = np.array([_prefactor("price", a, x) for x in k])
        prices = pre * (value + tail)
        for i, p in enumerate(prices):
            if not math.isfinite(p):
                raise AccuracyError(f"price is not finite at expiry "
                                    f"{phi.horizon} and chi={math.exp(k[i])}")
            prices[i] = _clamped("price", p, 0.0, [])
        out.append(spot * prices)
        if columns is not None:
            jacobians.append(spot * phi.horizon * (pre * columns).T)
    return out if dpsi is None else (out, jacobians)


# ---------------------------------------------------------------------------
# large-moneyness bound condition integral
# ---------------------------------------------------------------------------

def theorem4_condition_integral(phi: CharFn) -> ConditionIntegral:
    """Integral of |phi_tau(v - 2i)| / (1 + v) over v >= 0.

    Finiteness of this integral is the admissibility condition for the
    large-moneyness bound.  phi is sampled once on the engine's head nodes
    of the line alpha = 2: to the Gaussian cutoff if sigma > 0, else to
    _TAIL_REACH radii of its asymptote's series (at least _V_MAX), whose
    closed-form tail is added.  A pure-jump model without an asymptote
    raises DivergenceError (of the shipped models, pure-jump Merton: its
    law has an atom).  err_est is the head's sum over panels of |32-node -
    16-node|, the tail's budget and their rounding budgets; one that is not
    finite or above _ACCURACY_LIMIT of the total raises AccuracyError.
    """
    lo, hi = phi.strip_im
    if not (lo < -2.0 < hi):
        raise StripError(
            f"the line Im(z) = -2 lies outside the strip ({lo}, {hi})")
    if phi.sigma > 0.0:
        v_end, _ = _node_range(phi, 2.0)
    elif phi.asymptote is None:
        raise DivergenceError(
            "pure-jump characteristic function without a closed-form "
            "asymptote: condition integral treated as divergent")
    else:
        asymptote = phi.asymptote()
        v_end = min(max(_V_MAX, _TAIL_REACH * (asymptote[3] + 2.0)),
                    _TAIL_START_MAX)
    nodes = _Nodes(2.0, v_end, None, 0.0, errors=True)
    _, v, w, d, _ = nodes.paths[0]
    f = np.abs(nodes.sample(phi)[0]) / (1.0 + v)
    value = float((w * f).sum())
    err = float(np.abs((d * f).sum(axis=1)).sum() + _ROUNDING * value)
    if phi.sigma > 0.0:
        res = ConditionIntegral(value, 0.0, err, math.inf)
    else:
        tail, tail_err = _modulus_tail(phi, asymptote, v_end, v[-1, -1],
                                       f[-1, -1])
        res = ConditionIntegral(value, tail, err + tail_err, asymptote[1])
    if not res.err_est <= _ACCURACY_LIMIT * res.total:
        raise AccuracyError(
            f"condition integral {res.total:.6g} with error estimate "
            f"{res.err_est:.3g} misses the accuracy limit")
    return res


def _modulus_tail(phi: CharFn, asymptote, v_start: float, v_last: float,
                  f_last: float) -> Tuple[float, float]:
    """Integral past v_start of the asymptote of |phi(v - 2i)| / (1 + v) and
    its budget: the last term, rounding, and a tail of the size of the
    series' mismatch with the integrand f_last at the last head node v_last,
    past which the series' relative error only falls.  On w = 2 + iv =
    iv (1 - 2iu), u = 1/v, the contour asymptote gives log |phi| = Re K0 +
    2 carrier - p log v + sum_n r_n u^n; times 1/(1 + v) = u/(1 + u) that is
    e^{Re K0 + 2 carrier} v^-p sum_m b_m u^m, integrated per power.
    """
    k0, p, h, _ = asymptote
    n = np.arange(_ASYM_TERMS + 1)
    inv_w = -1j * np.concatenate([[0.0], (2j) ** n[:-1]])
    r = -p * _log1p_series(-2j)
    power = np.eye(n.size, dtype=complex)[0]
    for hn in h[1:]:
        power = np.convolve(power, inv_w)[:n.size]
        r += hn * power
    b = np.convolve(_exp_series(r.real),
                    np.concatenate([[0.0], (-1.0) ** n[:-1]]))[:n.size]
    log_scale = k0.real + 2.0 * phi.carrier
    terms = (math.exp(log_scale - p * math.log(v_start)) * b[1:]
             * v_start ** (1.0 - n[1:]) / (p + n[1:] - 1.0))
    at_last = (math.exp(log_scale - p * math.log(v_last))
               * np.polynomial.polynomial.polyval(1.0 / v_last, b))
    mismatch = abs(at_last - f_last) * v_start / p
    return (float(terms.sum()),
            float(abs(terms[-1]) + _ROUNDING * np.abs(terms).sum() + mismatch))
