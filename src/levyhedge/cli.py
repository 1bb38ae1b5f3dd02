"""Command-line front end.

Three verbs, all driven by an INI-style config (key = value with sections):

    levyhedge sweep     --config run.ini [--out sweep.csv]
    levyhedge verify    --config run.ini [--seed N] [--paths N]
    levyhedge calibrate --quotes quotes.csv --family merton --config run.ini

Exit codes: 0 success, 1 invariant/verification failure, 2 configuration
error.  CSV output is deterministic for a fixed config and starts with a
'#'-prefixed digest of the resolved configuration.  ``sweep`` and
``verify`` take every transform from one call of the fixed-node batch
engine ``fourier.transform_batch``, and ``calibrate`` prices with its
"price" kind; the only ``[fourier]`` key is ``alpha``, and any other key
there is a configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import calibration as cal
from . import hedging, oracle_mc
from .fourier import FourierConfig, char_fn, transform_batch
from .levy_core import (
    AccuracyError,
    AssumptionError,
    LevyModel,
    MmmModel,
    StripError,
    ZeroMeasure,
    to_mmm,
)
from .models import MertonParams, VgParams, _mu_for_mu_s, build_model, vg_from_kappa

__all__ = ["main", "load_run_config", "verify_report", "RunConfig"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    family: str
    model: LevyModel
    spot: float
    maturity: float
    valuation_time: float
    chis: Tuple[float, ...]
    fourier: FourierConfig
    n_paths: int
    seed: int
    out: Optional[str]
    digest: str

    @property
    def horizon(self) -> float:
        return self.maturity - self.valuation_time


def _read_params(section: configparser.SectionProxy, family: str,
                 prefix: str = "") -> cal.Params:
    """Merton or variance-gamma parameters from the keys ``<prefix><name>``
    of one section; a Merton drift left out is put mid-range of mu_s."""
    def get(name):
        return section.getfloat(prefix + name)

    if family == "merton":
        names = ("sigma", "gamma", "m", "delta")
        values = [get(n) for n in names]
        if None in values:
            raise ConfigError("merton needs " + ", ".join(prefix + n for n in names))
        mu = get("mu")
        params = MertonParams(0.0 if mu is None else mu, *values)
        return params if mu is not None else replace(params, mu=_mu_for_mu_s(params))
    if family == "vg":
        if get("c_par") is not None:
            return VgParams(get("c_par"), get("g_par"), get("m_par"))
        if get("kappa") is not None:
            return vg_from_kappa(get("kappa"), get("m"), get("delta"))
        raise ConfigError(f"vg needs ({prefix}c_par, {prefix}g_par, {prefix}m_par) "
                          f"or ({prefix}kappa, {prefix}m, {prefix}delta)")
    raise ConfigError(f"unknown model family {family!r}")


def _read_model(section: configparser.SectionProxy) -> Tuple[str, LevyModel]:
    family = section.get("family", "").strip().lower()
    if family == "bs":
        sigma = section.getfloat("sigma")
        if sigma is None:
            raise ConfigError("bs model needs sigma")
        mu = section.getfloat("mu")
        if mu is None:
            mu = -0.5 * sigma * sigma
        return family, LevyModel(mu=mu, sigma=sigma, measure=ZeroMeasure())
    return family, build_model(_read_params(section, family))


def _parse_chis(cp: configparser.ConfigParser, spot: float) -> Tuple[float, ...]:
    if not cp.has_section("strikes"):
        raise ConfigError("config needs a [strikes] section")
    sec = cp["strikes"]
    if sec.get("chis") is not None:
        chis = tuple(float(t) for t in sec.get("chis").replace(",", " ").split())
    else:
        k_min = sec.getfloat("k_min")
        k_max = sec.getfloat("k_max")
        k_step = sec.getfloat("k_step")
        if None in (k_min, k_max, k_step) or k_step <= 0:
            raise ConfigError("strikes need chis or k_min/k_max/k_step")
        strikes = np.arange(k_min, k_max + 1e-9 * k_step, k_step)
        chis = tuple(float(k) / spot for k in strikes)
    if not chis:
        raise ConfigError("strike grid is empty")
    if (any(not 0.0 < c < math.inf for c in chis)
            or any(b <= a for a, b in zip(chis, chis[1:]))):
        raise ConfigError("moneyness grid must be positive, finite and ascending")
    return chis


def _read_fourier(cp: configparser.ConfigParser) -> FourierConfig:
    """The [fourier] section, whose only key is alpha."""
    fsec = cp["fourier"] if cp.has_section("fourier") else {}
    for key in fsec:
        if key != "alpha":
            raise ConfigError(f"[fourier] {key}: unknown key; the only "
                              "[fourier] key is alpha")
    return FourierConfig(alpha=float(fsec.get("alpha", 1.75)))


def load_run_config(path, seed_override: Optional[int] = None,
                    paths_override: Optional[int] = None,
                    out_override: Optional[str] = None) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    try:
        if not cp.has_section("model"):
            raise ConfigError("config needs a [model] section")
        spot = cp["model"].getfloat("spot", fallback=1.0)
        if not spot > 0:
            raise ConfigError(f"spot must be > 0, got {spot}")
        family, model = _read_model(cp["model"])
        maturity = cp.getfloat("horizon", "maturity", fallback=1.0)
        valuation = cp.getfloat("horizon", "valuation_time", fallback=0.95)
        if not (0.0 <= valuation < maturity < math.inf):
            raise ConfigError("need 0 <= valuation_time < maturity, "
                              "both finite")
        chis = _parse_chis(cp, spot)
        fourier = _read_fourier(cp)
        n_paths = cp.getint("mc", "n_paths", fallback=1_000_000)
        seed = cp.getint("mc", "seed", fallback=0)
        out = cp.get("output", "path", fallback=None)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if seed_override is not None:
        seed = seed_override
    if paths_override is not None:
        n_paths = paths_override
    if out_override is not None:
        out = out_override
    try:
        oracle_mc.McConfig(n_paths=n_paths, seed=seed, horizon=maturity - valuation)
    except ValueError as exc:
        raise ConfigError(f"[mc] {exc}") from exc

    canon = []
    for section in sorted(cp.sections()):
        for key in sorted(cp[section]):
            canon.append(f"{section}.{key}={cp[section][key]}")
    canon.append(f"resolved.seed={seed}")
    canon.append(f"resolved.n_paths={n_paths}")
    digest = hashlib.sha256("\n".join(canon).encode()).hexdigest()
    return RunConfig(family=family, model=model, spot=spot, maturity=maturity,
                     valuation_time=valuation, chis=chis, fourier=fourier,
                     n_paths=n_paths, seed=seed, out=out, digest=digest)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _fmt(x: Optional[float]) -> str:
    if x is None:
        return ""
    return repr(float(x))


def cmd_sweep(rc: RunConfig, out_path: Optional[str]) -> int:
    mmm = to_mmm(rc.model)
    phi = char_fn(mmm, rc.horizon)
    points = hedging.sweep(mmm, phi, rc.chis, rc.fourier)
    lines = [f"# config-digest: {rc.digest}",
             "chi,i1,i2,lrm,delta,diff,bound_t3,bound_t4,flags"]
    for p in points:
        flags = ";".join(p.flags)
        lines.append(",".join([
            _fmt(p.chi), _fmt(p.i1), _fmt(p.i2), _fmt(p.lrm), _fmt(p.delta),
            _fmt(p.diff), _fmt(p.bound_t3), _fmt(p.bound_t4), flags]))
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    bad = [p for p in points if not p.ok]
    for p in [p for p in bad if p.error]:
        print(f"sweep: chi={p.chi!r}: {p.error}", file=sys.stderr)
    if bad:
        print(f"sweep: {len(bad)} point(s) failed invariants", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_QUANTITIES = ("i1", "tail_upper", "tail_lower", "price", "i2")


def verify_report(mmm: MmmModel, phi, chis: Sequence[float],
                  fcfg: FourierConfig,
                  mcfg: oracle_mc.McConfig) -> Tuple[List[dict], bool]:
    """Side-by-side Fourier vs Monte Carlo rows; pass = within 3 SE.

    The Fourier column comes from one batch-engine call for all strikes.
    A strike where the engine refuses a transform gets NaN rows that carry
    the refusal as ``error``, so they fail; no paths are drawn when every
    strike is refused.  ``phi`` is injectable so a deliberately
    mis-specified characteristic function shows up as a martingale/band
    failure.
    """
    fourier = transform_batch(("i1", "tail", "price", "i2"), phi, chis, fcfg,
                              model=mmm)
    refused = {}
    for i in range(len(chis)):
        for res in (fourier[kind][i] for kind in fourier):
            if isinstance(res, Exception):
                refused[i] = f"{type(res).__name__}: {res}"
                break

    rows: List[dict] = []
    kept = [chi for i, chi in enumerate(chis) if i not in refused]
    if kept:
        sample = oracle_mc.simulate_log_returns(mmm, mcfg)
        mc = oracle_mc.estimates_from_sample(mmm, sample, kept)
        mart = mc.martingale
        rows.append({"chi": "", "quantity": "martingale mean(e^L)",
                     "fourier": 1.0, "mc": mart.value, "se": mart.se,
                     "z": (mart.value - 1.0) / mart.se})
        by_strike = iter(mc.strikes)
    for i, chi in enumerate(chis):
        if i in refused:
            rows += [{"chi": chi, "quantity": name, "fourier": math.nan,
                      "mc": math.nan, "se": math.nan, "z": math.nan,
                      "error": refused[i]} for name in _VERIFY_QUANTITIES]
            continue
        value = {kind: fourier[kind][i].value for kind in fourier}
        tu = value["tail"]
        at = next(by_strike)
        tl, e2 = at.tail_upper, at.i2
        band2 = max(e2.se + e2.x_quad_err, 1e-15)
        pairs = [
            (value["i1"], at.i1),
            (tu, tl),
            (1.0 - tu, oracle_mc.McEstimate(1.0 - tl.value, tl.se)),
            (value["price"], at.price),
            (value["i2"], oracle_mc.McEstimate(e2.value, band2)),
        ]
        # zero-variance (all-identical) draws get the rule-of-three floor 1/n
        se_floor = 1.0 / sample.n_paths
        for name, (fv, est) in zip(_VERIFY_QUANTITIES, pairs):
            z = (fv - est.value) / max(est.se, se_floor)
            rows.append({"chi": chi, "quantity": name, "fourier": fv,
                         "mc": est.value, "se": est.se, "z": z})
    ok = all(abs(r["z"]) <= 3.0 for r in rows)
    return rows, ok


def cmd_verify(rc: RunConfig) -> int:
    mmm = to_mmm(rc.model)
    phi = char_fn(mmm, rc.horizon)
    mcfg = oracle_mc.McConfig(n_paths=rc.n_paths, seed=rc.seed,
                              horizon=rc.horizon)
    rows, ok = verify_report(mmm, phi, rc.chis, rc.fourier, mcfg)
    print(f"# config-digest: {rc.digest}")
    print(f"{'chi':>8} {'quantity':>22} {'fourier':>14} {'mc':>14} "
          f"{'se':>10} {'z':>7} pass")
    for r in rows:
        chi = f"{r['chi']:.4f}" if r["chi"] != "" else ""
        flag = "ok" if abs(r["z"]) <= 3.0 else "FAIL"
        print(f"{chi:>8} {r['quantity']:>22} {r['fourier']:>14.8f} "
              f"{r['mc']:>14.8f} {r['se']:>10.2e} {r['z']:>+7.2f} {flag}")
    print(f"verify: {'all within 3 SE' if ok else 'BAND VIOLATIONS'}")
    errors = {r["chi"]: r["error"] for r in rows if "error" in r}
    for chi, error in errors.items():
        print(f"verify: chi={chi!r}: {error}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(config_path, quotes_path, family: str,
                  out_path: Optional[str]) -> int:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not cp.read(config_path):
        raise ConfigError(f"cannot read config file {config_path}")
    if not cp.has_section("calibration"):
        raise ConfigError("config needs a [calibration] section with init_* keys")
    try:
        init = _read_params(cp["calibration"], family, prefix="init_")
        fourier = _read_fourier(cp)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        quotes = cal.read_quotes(quotes_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"quote file error: {exc}") from exc
    result = cal.calibrate(quotes, init, fourier)
    if out_path:
        cal.write_result(out_path, result)
    rep = result.constraint_report
    print(f"family = {family}")
    print(f"params = {result.params}")
    print(f"rmse = {result.rmse:.6g}")
    print(f"iterations = {result.iterations}, residual evaluations = "
          f"{result.nfev}, jacobian evaluations = {result.njev}")
    print(f"stop = {result.message} (status {result.status}), "
          f"converged = {result.converged}")
    print(f"constraints ok = {rep.ok} (mu_s = {rep.mu_s:.6g}, "
          f"lower bound = {rep.lower:.6g}) {rep.notes}")
    return EXIT_OK if result.converged and rep.ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="levyhedge",
                                 description="hedging strategies and bounds "
                                             "for exponential Levy models")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="strategy/bound sweep over a strike grid")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)

    vp = sub.add_parser("verify", help="Fourier vs Monte Carlo cross-check")
    vp.add_argument("--config", required=True)
    vp.add_argument("--seed", type=int, default=None)
    vp.add_argument("--paths", type=int, default=None)

    cp_ = sub.add_parser("calibrate", help="fit model parameters to call quotes")
    cp_.add_argument("--config", required=True)
    cp_.add_argument("--quotes", required=True)
    cp_.add_argument("--family", required=True, choices=["merton", "vg"])
    cp_.add_argument("--out", default=None)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            rc = load_run_config(args.config, out_override=args.out)
            return cmd_sweep(rc, rc.out)
        if args.command == "verify":
            rc = load_run_config(args.config, seed_override=args.seed,
                                 paths_override=args.paths)
            return cmd_verify(rc)
        if args.command == "calibrate":
            return cmd_calibrate(args.config, args.quotes, args.family, args.out)
    except (ConfigError, configparser.Error, AssumptionError, StripError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AccuracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
