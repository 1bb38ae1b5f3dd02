"""The three benchmark workloads: seeded inputs, one op through
``levyhedge.cli.main`` and the correctness gate of each op.

An op is one CLI call, made in-process.  Ops run in rounds: a round is
one op of each of the Merton and variance-gamma benchmark families (for
sweep, one of each per design horizon), so every round holds the same mix
of op costs.  Seeded inputs come from ``(seed, op index)`` alone; the
inputs that set an op's cost (sweep horizons, calibrate start points) are
fixed.  The gates run outside the timed region against references that
stay fixed when the timed path changes: adaptive ``fourier.transform`` for
sweep points (the oracle once sweep moves to a batch engine), and for fits
``calibration.rmse`` plus the parameters that generated the quotes.
Both a failure the program reports and a wrong output count the op as
failed; only a wrong output makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from levyhedge import cli
from levyhedge.benchmarks import SPOT, merton_benchmark, vg_benchmark
from levyhedge.calibration import read_quotes, rmse
from levyhedge.fourier import FourierConfig, char_fn, transform
from levyhedge.levy_core import to_mmm
from levyhedge.models import MertonParams, VgParams, vg_to_kappa

FAMILIES = ("merton", "vg")
QUOTE_DIR = Path(__file__).resolve().parent / "quotes"

# sweep: ROADMAP item-1 gate, batch or adaptive result vs fourier.transform
SWEEP_SPOT_TOL = 1e-9
# tau on a fixed design, not drawn: the midpoints of three equal strata of
# log tau over [1/365, 5] (about 0.0096, 0.117 and 1.43).  An op's cost
# falls by up to 2.6x with tau, so drawn horizons made a run's throughput
# depend on its seed more than on the program.
SWEEP_TAU_RANGE = (1.0 / 365.0, 5.0)
SWEEP_TAUS = tuple(
    math.exp(math.log(SWEEP_TAU_RANGE[0]) + (k + 0.5) / 3.0
             * math.log(SWEEP_TAU_RANGE[1] / SWEEP_TAU_RANGE[0]))
    for k in range(3))
SWEEP_LOG_ATM = 0.25            # |log chi| below which the head is plain quad
SWEEP_LOG_RANGE = (math.log(0.3), math.log(3.0))
# verify: the acceptance setting of criterion 4 (paths, MC seed, horizon
# 0.05 and its moneyness grid).  The MC seed is not drawn: each of the 6
# rows of an op is a 3-SE test with a ~0.3% false-alarm rate, so drawn
# seeds would fail an op now and then with nothing wrong in the program.
VERIFY_PATHS = 1_000_000
VERIFY_MC_SEED = 20160420
VERIFY_CHIS = (0.9037, 0.95, 1.0, 1.05, 1.1891)
VERIFY_ROWS_PER_STRIKE = 5
# calibrate: the initial guess is the truth scaled by fixed factors
# e^{+-0.05}, alternating in sign over the parameters.  It is not drawn:
# Nelder-Mead's evaluation count follows the start point (seeded starts in
# e^{+-0.05} took 1494-1890 evaluations for Merton and 458-629 for VG), so
# a drawn start made fits_per_min measure the draw.
CAL_INIT_LOG_FACTORS = {"merton": (0.05, -0.05, 0.05, -0.05),
                        "vg": (0.05, -0.05, 0.05)}
CAL_RMSE_MAX = 0.1
# criterion-9 recovery tolerances (relative)
CAL_RECOVERY = {
    "merton": {"sigma": 0.05, "delta": 0.05, "gamma": 0.15, "m": 0.15},
    "vg": {"c_par": 0.10, "g_par": 0.10, "m_par": 0.10},
}


# gate verdicts: the program reported a failure itself (non-zero exit or an
# exception), or it reported success with an output the gate rejects
OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    family: str
    argv: List[str]
    items: int                       # work units if the op passes its gate
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    rc: Optional[int]
    stdout: str
    stderr: str


def call_cli(argv: List[str]) -> Outcome:
    """One in-process ``levyhedge`` call; an exception is a failed op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # reported through the gate, not raised
            rc = None
            err.write(f"{type(exc).__name__}: {exc}\n")
    return Outcome(rc, out.getvalue(), err.getvalue())


def _model_section(family: str) -> str:
    if family == "merton":
        p = merton_benchmark()   # mu left out: the CLI fills an admissible one
        body = (f"family = merton\nsigma = {p.sigma!r}\ngamma = {p.gamma!r}\n"
                f"m = {p.m!r}\ndelta = {p.delta!r}\n")
    else:
        p = vg_benchmark()
        body = (f"family = vg\nc_par = {p.c_par!r}\ng_par = {p.g_par!r}\n"
                f"m_par = {p.m_par!r}\n")
    return f"[model]\n{body}spot = {SPOT!r}\n"


def _op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


class Workload:
    name = ""
    item = ""
    rate = ("", 1.0, "")        # name, scale from items per second, unit
    round_size = len(FAMILIES)  # ops per round; op i is of FAMILIES[i % 2]

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def make(self, index: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op, res: Outcome) -> Tuple[str, str]:
        raise NotImplementedError

    def run(self, op: Op) -> Outcome:
        return call_cli(op.argv)

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int):
    """One uniform draw in each of n equal strata of [lo, hi]."""
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def sweep_grid(rng: np.random.Generator) -> np.ndarray:
    """13 ascending moneyness points: chi = 1, six more with |log chi| <
    0.25 and six in the oscillatory regime out to [0.3, 3].  Log-moneyness
    is stratified, so every grid has the same spread of regimes."""
    lo, hi = SWEEP_LOG_RANGE
    logs = np.concatenate([
        _stratified(rng, lo, -SWEEP_LOG_ATM, 3),
        _stratified(rng, -SWEEP_LOG_ATM, 0.0, 3),
        [0.0],
        _stratified(rng, 0.0, SWEEP_LOG_ATM, 3),
        _stratified(rng, SWEEP_LOG_ATM, hi, 3),
    ])
    return np.exp(logs)     # ascending, and exp(0.0) is exactly 1.0


def parse_sweep_csv(text: str) -> List[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        rec = dict(zip(header, ln.split(",")))
        rows.append(rec)
    return rows


class Sweep(Workload):
    """One ``levyhedge sweep`` per op on a seeded 13-point grid.  A round
    is one op per family at each of the design horizons ``SWEEP_TAUS``."""

    name = "sweep"
    item = "points"
    rate = ("points_per_s", 1.0, "1/s")
    round_size = len(FAMILIES) * len(SWEEP_TAUS)

    def make(self, index: int) -> Op:
        family = FAMILIES[index % 2]
        rng = _op_rng(self.seed, index)
        tau = SWEEP_TAUS[(index // 2) % len(SWEEP_TAUS)]
        chis = sweep_grid(rng)
        spot_idx = int(rng.integers(len(chis)))
        cfg = (_model_section(family)
               + f"[horizon]\nmaturity = {tau!r}\nvaluation_time = 0.0\n"
               + "[strikes]\nchis = " + " ".join(repr(float(c)) for c in chis)
               + "\n")
        ini = self._write(f"sweep{index}.ini", cfg)
        out = str(self.workdir / f"sweep{index}.csv")
        return Op(family, ["sweep", "--config", ini, "--out", out],
                  items=len(chis),
                  info={"tau": tau, "chis": chis, "spot_idx": spot_idx,
                        "ini": ini, "csv": out})

    def check(self, op: Op, res: Outcome) -> Tuple[str, str]:
        if res.rc != 0:
            return FAILED, f"exit {res.rc}: {res.stderr.strip()[-200:]}"
        rows = parse_sweep_csv(Path(op.info["csv"]).read_text(encoding="utf-8"))
        if len(rows) != len(op.info["chis"]):
            return WRONG, f"{len(rows)} rows for {len(op.info['chis'])} strikes"
        for row, chi in zip(rows, op.info["chis"]):
            if float(row["chi"]) != float(chi):
                return WRONG, f"row chi {row['chi']} != input {chi!r}"
            flags = [f for f in row["flags"].split(";") if f]
            bad = [f for f in flags
                   if f.startswith("error:") or f.endswith("-violation")]
            if bad:
                return WRONG, f"chi={chi:.6g} flags {bad}"
            for key in ("i1", "i2", "lrm", "delta"):
                if not math.isfinite(float(row[key])):
                    return WRONG, f"chi={chi:.6g} {key} not finite"
        row = rows[op.info["spot_idx"]]
        chi = float(row["chi"])
        rc = cli.load_run_config(op.info["ini"])
        mmm = to_mmm(rc.model)
        phi = char_fn(mmm, rc.horizon)
        cfg = FourierConfig()
        s2c2 = mmm.sigma**2 + mmm.c2
        # the CSV has no tail column; bound_t3 is affine in it
        p_low = ((float(row["bound_t3"]) * s2c2 / chi - mmm.c2_minus)
                 / (mmm.c2_plus - mmm.c2_minus))
        got = {"i1": float(row["i1"]), "i2": float(row["i2"]),
               "tail": 1.0 - p_low}
        for kind, value in got.items():
            ref = transform(kind, phi, chi, cfg,
                            model=mmm if kind == "i2" else None).value
            if not abs(value - ref) <= SWEEP_SPOT_TOL:
                return WRONG, (f"spot check chi={chi:.6g} {kind} {value!r} vs "
                               f"transform {ref!r}")
        return OK, ""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Verify(Workload):
    """One ``levyhedge verify`` per op at 1e6 paths on one seeded strike of
    the criterion-4 grid, chi = 1 included.  One strike, not three, keeps a
    round (one op per family) near 13 s on a 2-core box, so that a run
    holds several rounds."""

    name = "verify"
    item = "strikes"
    rate = ("strikes_per_s", 1.0, "1/s")

    def make(self, index: int) -> Op:
        family = FAMILIES[index % 2]
        rng = _op_rng(self.seed, index)
        chis = [VERIFY_CHIS[rng.integers(len(VERIFY_CHIS))]]
        cfg = (_model_section(family)
               + "[horizon]\nmaturity = 1.0\nvaluation_time = 0.95\n"
               + "[strikes]\nchis = " + " ".join(repr(c) for c in chis) + "\n"
               + f"[mc]\nn_paths = {VERIFY_PATHS}\nseed = {VERIFY_MC_SEED}\n")
        ini = self._write(f"verify{index}.ini", cfg)
        return Op(family, ["verify", "--config", ini], items=len(chis),
                  info={"chis": chis, "ini": ini})

    def check(self, op: Op, res: Outcome) -> Tuple[str, str]:
        if res.rc != 0:
            tail = (res.stdout.strip().splitlines() or [""])[-1]
            return FAILED, f"exit {res.rc}: {tail} {res.stderr.strip()[-200:]}"
        lines = res.stdout.strip().splitlines()
        rows = [ln for ln in lines[2:-1]]
        want = 1 + VERIFY_ROWS_PER_STRIKE * len(op.info["chis"])
        if len(rows) != want:
            return WRONG, f"{len(rows)} rows, expected {want}"
        if not all(ln.split()[-1] == "ok" for ln in rows):
            return WRONG, "row outside 3 SE"
        if lines[-1] != "verify: all within 3 SE":
            return WRONG, lines[-1]
        return OK, ""


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def truth(family: str):
    return merton_benchmark() if family == "merton" else vg_benchmark()


def _number(text: str) -> float:
    # the fit record holds repr() of each value, which under numpy 2 reads
    # 'np.float64(30.1)' for numpy scalars
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def read_fit(path: str):
    rec = {}
    for ln in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, val = ln.partition(" = ")
        rec[key] = val
    if rec.get("family") == "merton":
        return MertonParams(*(_number(rec[k]) for k in
                              ("mu", "sigma", "gamma", "m", "delta")))
    return VgParams(*(_number(rec[k]) for k in ("c_par", "g_par", "m_par")))


class Calibrate(Workload):
    """One ``levyhedge calibrate`` per op on the 80 oracle-priced quotes of
    the op's family, from the truth scaled by the fixed factors
    ``CAL_INIT_LOG_FACTORS`` (Merton: sigma, gamma, m, delta; VG: kappa, m,
    delta).  Every round repeats the same two fits."""

    name = "calibrate"
    item = "fits"
    rate = ("fits_per_min", 60.0, "1/min")

    def __init__(self, seed: int, workdir: Path, quote_dir: Path = QUOTE_DIR):
        super().__init__(seed, workdir)
        self.quote_files = {f: str(quote_dir / f"{f}.csv") for f in FAMILIES}
        self.quotes = {f: read_quotes(p) for f, p in self.quote_files.items()}

    def make(self, index: int) -> Op:
        family = FAMILIES[index % 2]
        t = truth(family)
        f = np.exp(CAL_INIT_LOG_FACTORS[family])
        if family == "merton":
            init = {"init_sigma": t.sigma * f[0], "init_gamma": t.gamma * f[1],
                    "init_m": t.m * f[2], "init_delta": t.delta * f[3]}
        else:
            kappa, m, delta = vg_to_kappa(t)
            init = {"init_kappa": kappa * f[0], "init_m": m * f[1],
                    "init_delta": delta * f[2]}
        cfg = "[calibration]\n" + "".join(
            f"{k} = {float(v)!r}\n" for k, v in init.items())
        ini = self._write(f"calibrate{index}.ini", cfg)
        out = str(self.workdir / f"fit{index}.txt")
        return Op(family,
                  ["calibrate", "--config", ini, "--quotes",
                   self.quote_files[family], "--family", family, "--out", out],
                  items=1, info={"fit": out})

    def check(self, op: Op, res: Outcome) -> Tuple[str, str]:
        if res.rc != 0:
            return FAILED, f"exit {res.rc}: {res.stderr.strip()[-200:]}"
        params = read_fit(op.info["fit"])
        err = rmse(params, self.quotes[op.family], FourierConfig())
        if not err < CAL_RMSE_MAX:
            return WRONG, f"rmse of returned params {err:.4g}"
        t = truth(op.family)
        for name, tol in CAL_RECOVERY[op.family].items():
            got, want = getattr(params, name), getattr(t, name)
            if not abs(got / want - 1.0) <= tol:
                return WRONG, f"{name} {got:.6g} vs truth {want:.6g}"
        return OK, ""


WORKLOADS = {w.name: w for w in (Sweep, Verify, Calibrate)}
