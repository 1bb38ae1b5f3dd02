"""Golden outputs: the ``sweep`` CSVs, the ``verify`` rows and calibration
RMSEs of the benchmark sets, recorded once and checked at 1e-12 relative.
Any refactor that claims to leave the numbers alone must keep these green.

Regenerate (only when a change of output is intended, and say so) with

    PYTHONPATH=src python tests/test_golden.py

A change of the Monte Carlo sampler of one family, or of the random
generator or estimate pass that both families share, regenerates by this
rule:

* only that family's ``verify_<family>.json`` may change, or both of them
  for a shared change;
* within it, only each row's ``mc``, ``se`` and ``z`` may change, and the
  ``fourier`` column stays bit-identical;
* every row keeps |z| <= 3 (``test_verify_rows_stay_within_3_se``);
* the move, with max |z| before and after, is recorded in ``CHANGES.md``.

``git diff --stat tests/golden`` then lists those files only.  Regeneration
rewrites every file, and the ``sweep`` CSVs can move in their last digits
from one host to another (within ``RTOL``); restore those.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from levyhedge import cli
from levyhedge.benchmarks import (
    SPOT,
    benchmark_chi_grid,
    merton_benchmark,
    vg_benchmark,
)
from levyhedge.calibration import read_quotes, rmse
from levyhedge.fourier import FourierConfig, char_fn
from levyhedge.levy_core import to_mmm
from levyhedge.models import (
    MertonParams,
    _mu_for_mu_s,
    vg_from_kappa,
    vg_to_kappa,
)
from levyhedge.oracle_mc import McConfig

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12
FAMILIES = ("merton", "vg")
SWEEP_TAUS = {"1d": 1.0 / 365.0, "0.05": 0.05, "1y": 1.0}
VERIFY_PATHS = 100_000
VERIFY_SEED = 20160420
VERIFY_CHIS = (0.9037, 0.95, 1.0, 1.05, 1.1891)


def _model_section(family: str) -> str:
    if family == "merton":
        p = merton_benchmark()
        body = (f"family = merton\nsigma = {p.sigma!r}\ngamma = {p.gamma!r}\n"
                f"m = {p.m!r}\ndelta = {p.delta!r}\n")
    else:
        p = vg_benchmark()
        body = (f"family = vg\nc_par = {p.c_par!r}\ng_par = {p.g_par!r}\n"
                f"m_par = {p.m_par!r}\n")
    return f"[model]\n{body}spot = {SPOT!r}\n"


def _chis(chis) -> str:
    return "[strikes]\nchis = " + " ".join(repr(float(c)) for c in chis) + "\n"


def _sweep_csv(family: str, tau: float, tmp: Path) -> str:
    ini = tmp / "sweep.ini"
    ini.write_text(_model_section(family)
                   + f"[horizon]\nmaturity = {tau!r}\nvaluation_time = 0.0\n"
                   + _chis(benchmark_chi_grid()), encoding="utf-8")
    out = tmp / "sweep.csv"
    assert cli.main(["sweep", "--config", str(ini), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _verify_rows(family: str, tmp: Path):
    ini = tmp / "verify.ini"
    ini.write_text(_model_section(family)
                   + "[horizon]\nmaturity = 1.0\nvaluation_time = 0.95\n"
                   + _chis(VERIFY_CHIS), encoding="utf-8")
    rc = cli.load_run_config(str(ini), seed_override=VERIFY_SEED,
                             paths_override=VERIFY_PATHS)
    mmm = to_mmm(rc.model)
    mcfg = McConfig(n_paths=rc.n_paths, seed=rc.seed, horizon=rc.horizon)
    rows, ok = cli.verify_report(mmm, char_fn(mmm, rc.horizon), rc.chis,
                                 rc.fourier, mcfg)
    return {"ok": ok, "rows": rows}


def benchmark_start(family: str, scale: float = 0.05):
    """A calibration start point: the truth scaled by e^{+-scale},
    alternating in sign over (sigma, gamma, m, delta) with mu mid-band for
    Merton, and over (kappa, m, delta) for VG."""
    f = np.exp(scale * np.array([1.0, -1.0, 1.0, -1.0]))
    if family == "merton":
        t = merton_benchmark()
        p = MertonParams(0.0, t.sigma * f[0], t.gamma * f[1], t.m * f[2],
                         t.delta * f[3])
        return MertonParams(_mu_for_mu_s(p), p.sigma, p.gamma, p.m, p.delta)
    kappa, m, delta = vg_to_kappa(vg_benchmark())
    return vg_from_kappa(kappa * f[0], m * f[1], delta * f[2])


def _rmse_records():
    out = {}
    for family in FAMILIES:
        qs = read_quotes(GOLDEN / f"quotes_{family}.csv")
        truth = merton_benchmark() if family == "merton" else vg_benchmark()
        for name, p in (("truth", truth), ("start", benchmark_start(family))):
            out[f"{family}.{name}"] = {
                "params": list(vars(p).values()),
                "rmse": rmse(p, qs, FourierConfig())}
    return out


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= RTOL * abs(want)


def _sweep_cells(text: str):
    lines = text.splitlines()
    return lines[:2], [ln.split(",") for ln in lines[2:]]


@pytest.mark.parametrize("tau_id", list(SWEEP_TAUS))
@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_csv_matches_golden(family, tau_id, tmp_path):
    got_head, got = _sweep_cells(_sweep_csv(family, SWEEP_TAUS[tau_id], tmp_path))
    want_head, want = _sweep_cells(
        (GOLDEN / f"sweep_{family}_{tau_id}.csv").read_text(encoding="utf-8"))
    assert got_head == want_head
    assert len(got) == len(want)
    columns = want_head[1].split(",")
    for g_row, w_row in zip(got, want):
        assert g_row[-1] == w_row[-1], f"flags at chi={w_row[0]}"
        for name, g, w in zip(columns[:-1], g_row[:-1], w_row[:-1]):
            where = f"{name} at chi={w_row[0]}: {g} vs {w}"
            assert (g == w == "") or _close(float(g), float(w)), where


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_rows_match_golden(family, tmp_path):
    got = _verify_rows(family, tmp_path)
    want = json.loads((GOLDEN / f"verify_{family}.json").read_text(encoding="utf-8"))
    assert got["ok"] == want["ok"]
    assert len(got["rows"]) == len(want["rows"])
    for g, w in zip(got["rows"], want["rows"]):
        assert (g["chi"], g["quantity"]) == (w["chi"], w["quantity"])
        for key in ("fourier", "mc", "se", "z"):
            assert _close(g[key], w[key]), f"{w['quantity']} {key} at chi={w['chi']}"


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_rows_stay_within_3_se(family):
    rec = json.loads((GOLDEN / f"verify_{family}.json").read_text(encoding="utf-8"))
    assert rec["ok"]
    assert all(abs(row["z"]) <= 3.0 for row in rec["rows"])


def test_calibration_rmse_matches_golden():
    want = json.loads((GOLDEN / "rmse.json").read_text(encoding="utf-8"))
    got = _rmse_records()
    assert got.keys() == want.keys()
    for key, rec in want.items():
        assert got[key]["params"] == rec["params"], key
        assert _close(got[key]["rmse"], rec["rmse"]), key


def regenerate() -> None:
    import shutil
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    quotes = Path(__file__).resolve().parent.parent / "perfbench" / "quotes"
    with tempfile.TemporaryDirectory() as tmp:
        for family in FAMILIES:
            shutil.copyfile(quotes / f"{family}.csv",
                            GOLDEN / f"quotes_{family}.csv")
            for tau_id, tau in SWEEP_TAUS.items():
                (GOLDEN / f"sweep_{family}_{tau_id}.csv").write_text(
                    _sweep_csv(family, tau, Path(tmp)), encoding="utf-8")
            (GOLDEN / f"verify_{family}.json").write_text(
                json.dumps(_verify_rows(family, Path(tmp)), indent=1) + "\n",
                encoding="utf-8")
    (GOLDEN / "rmse.json").write_text(
        json.dumps(_rmse_records(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
