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

Both check the damping line with ``_check_strip`` (StripError when it
leaves the strip of phi) and apply the same checks to each result:
``clamped`` for values just outside a kind's range, and AccuracyError for
a value or error estimate that is not finite or an error estimate above
1e-5.  Only this module knows the integrands, prefactors, Gaussian cutoff
and contour directions.
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
                  |w| past which it converges; a pure-jump CharFn
                  without one (pure-jump Merton) raises ValueError.
    """

    fn: Callable
    horizon: float
    strip_im: Tuple[float, float]
    sigma: float
    fn_analytic: Callable
    carrier: float = 0.0
    asymptote: Optional[Callable] = None

    def __post_init__(self):
        if self.sigma == 0.0 and self.asymptote is None:
            raise ValueError("a pure-jump characteristic function needs a "
                             "closed-form asymptote for Fourier inversion")

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
    """value moved into the kind's range, [0, 1] or [0, inf), if it left
    it by at most max(_CLAMP_TOL, 10 err); AccuracyError if by more."""
    edge = min(max(value, 0.0), 1.0 if kind in ("i1", "tail") else math.inf)
    if edge != value:
        if abs(edge - value) > max(_CLAMP_TOL, 10.0 * err):
            raise AccuracyError(
                f"{kind} transform left its range by {abs(edge - value):.3g} "
                f"(err estimate {err:.3g})")
        flags.append("clamped")
    return edge


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
    _check_strip(phi, cfg.alpha)

    if kind == "i2" and model is not None and model.measure.is_zero:
        return FourierResult(0.0, 0.0, ())

    a, flags, k = cfg.alpha, [], math.log(chi)
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

    def integrate(self, kind: str, samples, k: np.ndarray, phi: CharFn,
                  model: Optional[MmmModel], phases: dict,
                  n_head: Optional[int] = None, factors=None):
        """The transform of ``kind`` per log-moneyness k: the prefactor
        times Re of integral_0^inf e^{-ivk} psi(v) dv, with the closed-form
        asymptote past the last contour node (``_tails``); times the sum of
        the per-panel error estimates (zero without the nested rule) and
        the asymptote's last term; and times the contraction of ``factors``
        without the asymptote (None without them).

        Strikes with k >= phi.carrier take the downward contour, the others
        the upward one.  ``phases`` caches e^{-ivk} on every node across
        calls with the same k; ``n_head`` keeps only the first head panels
        (``samples[0]`` holds just theirs).  ``factors``, per path a (q,
        panels, m) array shaped like its samples, gives the (q, strikes)
        integrals of psi times each factor: one matmul per path of the
        factors times the weighted integrand that the value contracts.
        """
        down = k >= phi.carrier
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
            ph = phases.get(name)
            if ph is None:
                ph = phases[name] = np.multiply.outer(-1j * kk, v)
                np.exp(ph, out=ph)
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
        tail, tail_err = _tails(kind, phi, model, self.alpha, k, self.s_end)
        pre = np.array([_prefactor(kind, self.alpha, x) for x in k])
        return (pre * (value + tail), pre * (err + tail_err),
                None if columns is None else pre * columns)


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
    whose contour integrand has not decayed there."""
    value = np.zeros(k.size)
    err = np.zeros(k.size)
    if s_end is None:
        return value, err
    for i in np.flatnonzero(np.abs(k - phi.carrier) * s_end < _S_DECAY):
        tail, last = _asymptote_tail(kind, phi, model, alpha, k[i], s_end)
        rot = -1j if k[i] >= phi.carrier else 1j
        value[i] = (rot * tail).real
        err[i] = last
    return value, err


def _check_strip(phi: CharFn, alpha: float) -> None:
    """StripError unless the damping line Im(z) = -alpha lies inside the
    strip of phi."""
    lo, hi = phi.strip_im
    if not (lo < -alpha < hi):
        raise StripError(
            f"damping line Im(z) = -{alpha} outside the strip ({lo}, {hi})")


def transform_batch(kinds: Sequence[str], phi: CharFn, chis: Sequence[float],
                    cfg: FourierConfig, model: Optional[MmmModel] = None
                    ) -> Dict[str, Tuple[Union[FourierResult, AccuracyError], ...]]:
    """Every transform of ``kinds`` at every moneyness, from one set of
    fixed nodes.

    phi is sampled once; each kind multiplies the samples by its own
    rational factor, and e^{-ivk} is shared across kinds.  A damping line
    outside the strip of phi raises StripError for the whole call.  Each
    entry is the FourierResult of one moneyness, checked as ``transform``
    checks its result, or the AccuracyError that moneyness raised (for a
    value or error estimate that is not finite or an error estimate above
    the accuracy limit).  err_est is the prefactor times the sum over
    panels of |32-node - 16-node|, plus a rounding budget and the size of
    the last asymptote term.
    """
    chis = np.asarray(chis, dtype=float)
    if np.any(chis <= 0):
        raise ValueError("moneyness must be > 0")
    for kind in kinds:
        _check_kind(kind, model)
    a = cfg.alpha
    _check_strip(phi, a)
    k = np.log(chis)
    v_end, s_end = _node_range(phi, a)
    nodes = _Nodes(a, v_end, s_end, float(np.abs(k).max(initial=0.0)),
                   errors=True)
    samples = nodes.sample(phi)
    phases: Dict[str, np.ndarray] = {}
    out: Dict[str, Tuple[Union[FourierResult, AccuracyError], ...]] = {}
    for kind in kinds:
        if kind == "i2" and model.measure.is_zero:
            out[kind] = (FourierResult(0.0, 0.0, ()),) * k.size
            continue
        value, err, _ = nodes.integrate(kind, samples, k, phi, model, phases)
        out[kind] = tuple(_checked(kind, float(c), float(v), float(e))
                          for c, v, e in zip(chis, value, err))
    return out


def _checked(kind: str, chi: float, value: float,
             err: float) -> Union[FourierResult, AccuracyError]:
    try:
        return _result(kind, chi, value, err, [])
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
    e^{-ivk} while they stay valid.  A price is checked by ``_clamped``'s
    rule at err 0: one that is not finite or below -_CLAMP_TOL raises
    AccuracyError, and a smaller negative one becomes 0.  A spot or strike
    that is not positive raises ValueError.

    With ``dpsi``, a map from z and the base moments (g(w), g(w + 1)) at
    w = iz that ``mmm_cumulant`` computed for Psi to the derivatives of Psi
    along n parameters (an (n, *z.shape) array), the result is the pair
    (prices, jacobians), ``jacobians[j]`` the (strikes, n) derivatives of
    the prices at ``expiries[j]``: tau times the price integrand, times
    dPsi, contracted with the same e^{-ivk} in one matmul per path beside
    the prices, which stay bit-identical.  The derivatives leave out the
    closed-form asymptote past the last contour node.
    """
    if not (spot > 0 and all(np.all(np.asarray(s) > 0) for s in strikes)):
        raise ValueError("spot and strikes must be positive")
    phis = [_char_fn(model, tau) for tau in expiries]
    _check_martingale(model, max(expiries))
    logs = [np.log(np.asarray(s, dtype=float) / spot) for s in strikes]
    a = cfg.alpha
    _check_strip(phis[0], a)
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
        prices, _, columns = nodes.integrate(
            "price", samples, k, phi, None, cache.setdefault(j, {}),
            n_head=n,
            factors=None if grads is None else [grads[0][:, :n]] + grads[1:])
        bad = ~np.isfinite(prices) | (prices < -_CLAMP_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            raise AccuracyError(
                f"price {prices[i]!r} at expiry {phi.horizon} and "
                f"chi={math.exp(k[i])} is not finite or below -{_CLAMP_TOL}")
        prices[prices < 0.0] = 0.0
        out.append(spot * prices)
        if columns is not None:
            jacobians.append(spot * phi.horizon * columns.T)
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
    closed-form tail is added.  err_est is the head's sum over panels of
    |32-node - 16-node|, the tail's budget and their rounding budgets; one
    that is not finite or above _ACCURACY_LIMIT of the total raises
    AccuracyError.
    """
    _check_strip(phi, 2.0)
    if phi.sigma > 0.0:
        v_end, _ = _node_range(phi, 2.0)
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
