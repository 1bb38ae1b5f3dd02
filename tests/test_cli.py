import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import levyhedge
from levyhedge import FourierConfig, cli, to_mmm
from levyhedge.benchmarks import SPOT
from levyhedge.calibration import Quote, QuoteSet, write_quotes
from levyhedge.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_OK,
    load_run_config,
    main,
    verify_report,
)
from levyhedge.fourier import call_prices
from levyhedge.models import merton_model
from levyhedge.oracle_mc import McConfig

SRC = Path(__file__).resolve().parent.parent / "src"

MERTON_INI = """
[model]
family = merton
sigma = 0.0435
gamma = 0.0054
m = -0.0697
delta = 0.0889
spot = 2102.4

[horizon]
maturity = 1.0
valuation_time = 0.95

[strikes]
k_min = 1900
k_max = 2500
k_step = 50

[fourier]
alpha = 1.75

[mc]
n_paths = 150000
seed = 20160420
"""

BS_INI = """
[model]
family = bs
sigma = 0.2
spot = 100

[horizon]
maturity = 1.0
valuation_time = 0.95

[strikes]
chis = 0.8 0.9 1.0 1.1 1.2

[mc]
n_paths = 150000
seed = 7
"""

VG_INI = """
[model]
family = vg
c_par = 6.7910
g_par = 30.1807
m_par = 33.1507
spot = 2102.4

[horizon]
maturity = 1.0
valuation_time = 0.95

[strikes]
chis = 0.95 1.0 1.05
"""


@pytest.fixture()
def merton_ini(tmp_path):
    p = tmp_path / "merton.ini"
    p.write_text(MERTON_INI)
    return p


@pytest.fixture()
def bs_ini(tmp_path):
    p = tmp_path / "bs.ini"
    p.write_text(BS_INI)
    return p


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_load_run_config(merton_ini):
    rc = load_run_config(merton_ini)
    assert rc.family == "merton"
    assert rc.spot == 2102.4
    assert len(rc.chis) == 13
    assert rc.chis[0] == pytest.approx(1900 / 2102.4)
    assert rc.horizon == pytest.approx(0.05)
    # drift omitted from the config: filled with an admissible value
    from levyhedge import compute_mu_s
    assert compute_mu_s(rc.model) < 0


def test_config_digest_stable(merton_ini):
    a = load_run_config(merton_ini)
    b = load_run_config(merton_ini)
    assert a.digest == b.digest
    c = load_run_config(merton_ini, seed_override=1)
    assert c.digest != a.digest


def test_bad_configs(tmp_path):
    missing = tmp_path / "nope.ini"
    assert main(["sweep", "--config", str(missing)]) == EXIT_CONFIG
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nfamily = heston\n\n[strikes]\nchis = 1.0\n")
    assert main(["sweep", "--config", str(bad)]) == EXIT_CONFIG
    nostrikes = tmp_path / "nostrikes.ini"
    nostrikes.write_text("[model]\nfamily = bs\nsigma = 0.2\n")
    assert main(["sweep", "--config", str(nostrikes)]) == EXIT_CONFIG


@pytest.mark.parametrize("spot", ["0", "-5"])
def test_non_positive_spot_is_config_error(tmp_path, capsys, spot):
    ini = tmp_path / "spot.ini"
    ini.write_text(MERTON_INI.replace("spot = 2102.4", f"spot = {spot}"))
    assert main(["sweep", "--config", str(ini)]) == EXIT_CONFIG
    assert "spot must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("chis", ["1 inf", "1 nan", "0.5 1e400"])
def test_non_finite_strike_is_config_error(tmp_path, capsys, chis):
    # refused with one error line before any model is built, where inf
    # overflowed the engine's panel sizing and nan became a failed point
    ini = tmp_path / "chis.ini"
    ini.write_text(VG_INI.replace("chis = 0.95 1.0 1.05", f"chis = {chis}"))
    assert main(["sweep", "--config", str(ini)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: moneyness grid must be positive, finite and ascending"]


@pytest.mark.parametrize("family, key, value", [
    ("merton", "sigma", "nan"), ("bs", "sigma", "nan"), ("merton", "m", "nan"),
    ("merton", "gamma", "inf"), ("vg", "c_par", "inf")])
def test_non_finite_model_parameter_is_config_error(tmp_path, capsys, family,
                                                    key, value):
    # refused where the record is built, in a message naming the field,
    # not as a drift constraint that a nan mu_s violates
    ini = {"merton": MERTON_INI, "bs": BS_INI, "vg": VG_INI}[family]
    path = tmp_path / "model.ini"
    path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", ini,
                           flags=re.MULTILINE))
    assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{key} must be finite, got {value}" in err
    assert "drift constraint" not in err


CAL_QUOTES = "# spot = 100.0\nexpiry,strike,mid\n0.25,100.0,2.5\n"
CAL_INI = {"merton": "[calibration]\ninit_sigma = 0.04\ninit_gamma = 0.005\n"
                     "init_m = -0.07\ninit_delta = 0.09\n",
           "vg": "[calibration]\ninit_c_par = 7.1\ninit_g_par = 29.0\n"
                 "init_m_par = 34.5\n"}


@pytest.mark.parametrize("family, old, new, field", [
    ("merton", "init_sigma = 0.04", "init_sigma = nan", "sigma"),
    ("merton", "init_gamma = 0.005", "init_gamma = inf", "gamma"),
    ("vg", "init_c_par = 7.1", "init_c_par = nan", "c_par"),
    ("merton", "spot = 100.0", "spot = nan", "spot"),
    ("merton", "0.25,100.0,2.5", "0.25,nan,2.5", "strike"),
    ("merton", "0.25,100.0,2.5", "0.25,100.0,nan", "mid"),
    ("merton", "0.25,100.0,2.5", "0.25,100.0,inf", "mid"),
    ("merton", "0.25,100.0,2.5", "inf,100.0,2.5", "expiry")],
    ids=["init_sigma-nan", "init_gamma-inf", "init_c_par-nan", "spot-nan",
         "strike-nan", "mid-nan", "mid-inf", "expiry-inf"])
def test_non_finite_calibration_input_is_config_error(tmp_path, capsys, family,
                                                      old, new, field):
    # a non-finite start or quote is a configuration error naming the
    # field, not a fit whose every start fails to price
    ini, quotes = tmp_path / "cal.ini", tmp_path / "quotes.csv"
    ini.write_text(CAL_INI[family].replace(old, new))
    quotes.write_text(CAL_QUOTES.replace(old, new))
    assert main(["calibrate", "--config", str(ini), "--quotes", str(quotes),
                 "--family", family]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{field} must be" in err and "finite" in err


@pytest.mark.parametrize("verb", ["sweep", "verify"])
@pytest.mark.parametrize("maturity, code", [("inf", EXIT_CONFIG),
                                            ("1e300", EXIT_FAIL)])
def test_huge_or_infinite_horizon_is_one_error_line(tmp_path, capsys, verb,
                                                    maturity, code):
    # an infinite maturity is refused with the config; a finite but huge
    # one breaks phi's martingale check, an AccuracyError that main reports
    # as a failure instead of a traceback
    ini = tmp_path / "horizon.ini"
    ini.write_text(MERTON_INI.replace("maturity = 1.0", f"maturity = {maturity}"))
    assert main([verb, "--config", str(ini)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_exported_failures_are_the_three_typed_ones(monkeypatch, capsys):
    # the library's typed failures are exactly StripError, AssumptionError
    # and AccuracyError; the CLI reports the first two as configuration
    # errors (an AccuracyError is a failed point, or exit 1 with one error
    # line where it escapes a verb)
    modules = [levyhedge] + [importlib.import_module(f"levyhedge.{m.name}")
                             for m in pkgutil.iter_modules(levyhedge.__path__)]
    exported = {name for mod in modules
                for name in getattr(mod, "__all__", dir(mod))
                if isinstance(getattr(mod, name), type)
                and issubclass(getattr(mod, name), BaseException)}
    assert exported == {"StripError", "AssumptionError", "AccuracyError"}
    for exc in (levyhedge.StripError, levyhedge.AssumptionError):
        def refuse(*args, **kwargs):
            raise exc("refused")
        monkeypatch.setattr(cli, "load_run_config", refuse)
        assert main(["sweep", "--config", "run.ini"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: refused\n"


def test_infeasible_drift_is_config_error(tmp_path):
    ini = tmp_path / "bad_mu.ini"
    ini.write_text(MERTON_INI.replace("[horizon]", "mu = 4.0073\n\n[horizon]"))
    assert main(["sweep", "--config", str(ini)]) == EXIT_CONFIG


def test_deterministic_model_is_config_error(tmp_path, capsys):
    # bs with sigma = 0 leaves 0 >= mu_s > -(sigma^2 + C2) empty
    ini = tmp_path / "bs0.ini"
    ini.write_text(BS_INI.replace("sigma = 0.2", "sigma = 0"))
    assert main(["sweep", "--config", str(ini)]) == EXIT_CONFIG
    assert "drift constraint" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["sweep", "verify", "calibrate"])
@pytest.mark.parametrize("text", ["family = bs\nsigma = 0.2\n",
                                  "[model]\nfamily = bs\nfamily = vg\n"],
                         ids=["no-section-header", "duplicate-key"])
def test_malformed_ini_is_config_error(tmp_path, capsys, verb, text):
    ini = tmp_path / "malformed.ini"
    ini.write_text(text)
    args = [verb, "--config", str(ini)]
    if verb == "calibrate":
        args += ["--quotes", str(tmp_path / "quotes.csv"), "--family", "merton"]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def test_sweep_merton_csv(merton_ini, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(merton_ini), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config-digest: ")
    assert lines[1] == "chi,i1,i2,lrm,delta,diff,bound_t3,bound_t4,flags"
    assert len(lines) == 2 + 13
    row = lines[2].split(",")
    chi, i1v, i2v, lrmv, deltav, diffv, b3, b4 = map(float, row[:8])
    assert diffv == pytest.approx(abs(lrmv - deltav), rel=1e-12)
    assert diffv <= b3
    assert b4 > 0


def test_sweep_deterministic_output(merton_ini, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--config", str(merton_ini), "--out", str(out1)])
    main(["sweep", "--config", str(merton_ini), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_bs_diff_vanishes(bs_ini, tmp_path):
    out = tmp_path / "bs.csv"
    assert main(["sweep", "--config", str(bs_ini), "--out", str(out)]) == EXIT_OK
    for line in out.read_text().strip().splitlines()[2:]:
        diff = float(line.split(",")[5])
        assert diff <= 1e-9


def test_sweep_vg_has_bound_t4(tmp_path):
    # at tau = 0.05 and at tau = 1 day, where the condition integrand decays
    # only like v^(-0.037) but the integral is still finite
    one_day = f"maturity = {1.0 / 365.0!r}\nvaluation_time = 0.0"
    ini = tmp_path / "vg.ini"
    out = tmp_path / "vg.csv"
    for text in (VG_INI, VG_INI.replace("maturity = 1.0\nvaluation_time = 0.95",
                                        one_day)):
        ini.write_text(text)
        assert main(["sweep", "--config", str(ini), "--out", str(out)]) == EXIT_OK
        for line in out.read_text().strip().splitlines()[2:]:
            b4, flags = line.split(",")[7:9]
            assert b4 != "" and float(b4) > 0
            assert "t4-violation" not in flags


def test_sweep_reports_the_message_of_a_failed_point(merton_ini, tmp_path,
                                                     monkeypatch, capsys):
    # the CSV keeps the exception type as a flag; stderr gets its message
    from levyhedge import hedging
    point = hedging.strategy_point

    def failing(model, chi, *args, **kwargs):
        if chi == 2000.0 / 2102.4:
            raise ValueError("no hedge here")
        return point(model, chi, *args, **kwargs)

    monkeypatch.setattr(hedging, "strategy_point", failing)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(merton_ini), "--out", str(out)]) == EXIT_FAIL
    flags = [line.split(",")[8] for line in out.read_text().splitlines()[2:]]
    assert flags.count("error:ValueError;point-violation") == 1
    err = capsys.readouterr().err
    assert f"sweep: chi={2000.0 / 2102.4!r}: ValueError: no hedge here" in err


def test_sweep_fft_flag_removed(merton_ini):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(merton_ini), "--fft"])
    assert exc.value.code == EXIT_CONFIG


def test_fourier_section_accepts_only_alpha(tmp_path, capsys):
    ini = tmp_path / "fourier.ini"
    ini.write_text(BS_INI + "\n[fourier]\nalpha = 1.25\n")
    assert load_run_config(ini).fourier == FourierConfig(alpha=1.25)
    for line in ("mode = direct-quadrature", "n_grid = 16384", "eta = 0.025"):
        ini.write_text(BS_INI + "\n[fourier]\nalpha = 1.25\n" + line + "\n")
        assert main(["sweep", "--config", str(ini)]) == EXIT_CONFIG
        key = line.split(" = ")[0]
        assert f"[fourier] {key}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_bs(bs_ini, capsys):
    assert main(["verify", "--config", str(bs_ini), "--paths", "120000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "martingale" in out
    assert "all within 3 SE" in out


@pytest.mark.parametrize("args", [["--paths", "5000"], ["--seed", "-1"]])
def test_verify_bad_mc_flags_are_config_errors(bs_ini, capsys, args):
    assert main(["verify", "--config", str(bs_ini)] + args) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: [mc] ")


@pytest.mark.parametrize("key, value", [("n_paths", "5000"), ("seed", "-1")])
def test_bad_mc_section_is_config_error(tmp_path, capsys, key, value):
    ini = tmp_path / "mc.ini"
    ini.write_text(BS_INI.split("[mc]")[0] + f"[mc]\n{key} = {value}\n")
    assert main(["verify", "--config", str(ini)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: [mc] ")


def test_verify_computes_each_transform_once_per_strike(merton_mmm, phi_merton,
                                                       cfg, monkeypatch):
    # one batch-engine call prices every kind at every strike; the
    # tail_lower row is 1 - tail_upper, not a second tail transform, and no
    # row falls back to the adaptive oracle
    from levyhedge import cli, fourier
    counts = Counter()
    real = fourier.transform_batch

    def counted(kinds, phi, chis, *args, **kwargs):
        counts["calls"] += 1
        for kind in kinds:
            counts[kind] += len(chis)
        return real(kinds, phi, chis, *args, **kwargs)

    def oracle(*args, **kwargs):
        raise AssertionError("verify called the adaptive transform")

    monkeypatch.setattr(cli, "transform_batch", counted)
    monkeypatch.setattr(fourier, "transform", oracle)
    verify_report(merton_mmm, phi_merton, [0.95, 1.05], cfg,
                  McConfig(n_paths=10_000, seed=1, horizon=phi_merton.horizon))
    assert counts == {"calls": 1, "i1": 2, "tail": 2, "price": 2, "i2": 2}


NEAR_LATTICE_INI = """
[model]
family = merton
sigma = 0.01
gamma = 5
m = 0.5
delta = 0.01

[horizon]
maturity = 5
valuation_time = 0

[strikes]
chis = 0.5 1 2

[mc]
n_paths = 20000
"""


def test_verify_reports_strikes_the_engine_refuses(tmp_path, capsys,
                                                   monkeypatch):
    # near-lattice jumps at tau = 5: the engine refuses every transform at
    # every strike (error estimates 60-350 against the limit 1e-5), so
    # verify reports each strike as sweep does and draws no paths
    from levyhedge import oracle_mc

    def no_paths(*args, **kwargs):
        raise AssertionError("verify drew paths with every strike refused")

    monkeypatch.setattr(oracle_mc, "simulate_log_returns", no_paths)
    ini = tmp_path / "refused.ini"
    ini.write_text(NEAR_LATTICE_INI)
    assert main(["verify", "--config", str(ini)]) == EXIT_FAIL
    out, err = capsys.readouterr()
    rows = [ln for ln in out.splitlines()[2:-1]]
    assert len(rows) == 15 and all(ln.endswith(" FAIL") for ln in rows)
    assert out.splitlines()[-1] == "verify: BAND VIOLATIONS"
    lines = err.splitlines()
    assert [ln.split(": ")[1] for ln in lines] == ["chi=0.5", "chi=1.0", "chi=2.0"]
    assert all(ln.startswith("verify: chi=") and ": AccuracyError: " in ln
               and "exceeds the accuracy limit" in ln for ln in lines)


def test_verify_checks_the_strikes_beside_a_refused_one(
        merton_mmm, phi_merton, cfg, monkeypatch):
    from levyhedge import cli
    from levyhedge.levy_core import AccuracyError
    real = cli.transform_batch

    def refuse_first(kinds, phi, chis, *args, **kwargs):
        out = real(kinds, phi, chis, *args, **kwargs)
        out["price"] = (AccuracyError("price refused"),) + out["price"][1:]
        return out

    mcfg = McConfig(n_paths=20_000, seed=1, horizon=phi_merton.horizon)
    want, ok = verify_report(merton_mmm, phi_merton, [0.95, 1.05], cfg, mcfg)
    assert ok
    monkeypatch.setattr(cli, "transform_batch", refuse_first)
    rows, ok = verify_report(merton_mmm, phi_merton, [0.95, 1.05], cfg, mcfg)
    assert not ok
    assert [r["quantity"] for r in rows] == [r["quantity"] for r in want]
    refused = [r for r in rows if r["chi"] == 0.95]
    assert all(r["error"] == "AccuracyError: price refused"
               and np.isnan(r["z"]) for r in refused)
    kept = [r for r in rows if r["chi"] != 0.95]
    assert kept == [r for r in want if r["chi"] != 0.95]


def test_verify_negative_control_fails(bs_mmm):
    # mis-specified characteristic function: drift off by 2 vol points
    from levyhedge import CharFn, mmm_cumulant
    def bad(z):
        return np.exp(0.05 * (mmm_cumulant(bs_mmm, z)
                              + 1j * np.asarray(z, complex) * 0.02))
    phi_bad = CharFn(fn=bad, horizon=0.05, strip_im=bs_mmm.strip(),
                     sigma=bs_mmm.sigma, fn_analytic=bad)
    rows, ok = verify_report(bs_mmm, phi_bad, [1.0],
                             FourierConfig(),
                             McConfig(n_paths=120_000, seed=3, horizon=0.05))
    assert not ok


# ---------------------------------------------------------------------------
# calibrate command
# ---------------------------------------------------------------------------

def test_calibrate_cli_merton(tmp_path, merton_params, cfg, capsys):
    mmm = to_mmm(merton_model(merton_params))
    quotes = []
    for T in (58 / 365, 149 / 365):
        strikes = SPOT * np.asarray([0.9, 0.97, 1.0, 1.03, 1.1])
        (prices,) = call_prices(mmm, SPOT, [T], [strikes], cfg)
        for K, p in zip(strikes, prices):
            quotes.append(Quote(T, float(K), float(p)))
    qpath = tmp_path / "quotes.csv"
    write_quotes(qpath, QuoteSet(spot=SPOT, quotes=tuple(quotes)))

    ini = tmp_path / "cal.ini"
    p = merton_params
    ini.write_text(f"""
[calibration]
init_sigma = {p.sigma * 1.15}
init_gamma = {p.gamma * 0.9}
init_m = {p.m * 1.1}
init_delta = {p.delta * 0.9}
""")
    out = tmp_path / "result.txt"
    code = main(["calibrate", "--config", str(ini), "--quotes", str(qpath),
                 "--family", "merton", "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "residual evaluations = " in printed
    assert "stop = `" in printed
    text = out.read_text()
    assert "family = merton" in text
    assert "constraint_ok = True" in text
    assert "residual_evaluations = " in text
    assert "converged = True" in text
    got = float(next(l for l in text.splitlines() if l.startswith("sigma"))
                .split("=")[1])
    assert got == pytest.approx(p.sigma, rel=0.05)


def test_calibrate_cli_empty_quotes(tmp_path):
    qpath = tmp_path / "empty.csv"
    qpath.write_text("")
    ini = tmp_path / "cal.ini"
    ini.write_text("[calibration]\ninit_sigma = 0.04\ninit_gamma = 0.005\n"
                   "init_m = -0.07\ninit_delta = 0.09\n")
    assert main(["calibrate", "--config", str(ini), "--quotes", str(qpath),
                 "--family", "merton"]) == EXIT_CONFIG


def test_calibrate_reads_the_fourier_section(tmp_path, capsys, monkeypatch):
    # calibrate takes [fourier] as sweep and verify do: alpha reaches the
    # fit, and any other key, or an alpha outside (1, 2], exits 2
    from levyhedge import cli
    qpath = tmp_path / "quotes.csv"
    write_quotes(qpath, QuoteSet(spot=100.0, quotes=(Quote(0.25, 100.0, 2.5),)))
    ini = tmp_path / "cal.ini"
    init = ("[calibration]\ninit_sigma = 0.04\ninit_gamma = 0.005\n"
            "init_m = -0.07\ninit_delta = 0.09\n[fourier]\n")
    args = ["calibrate", "--config", str(ini), "--quotes", str(qpath),
            "--family", "merton"]
    for line, message in (("mode = fft", "[fourier] mode"),
                          ("alpha = 7", "alpha must lie in (1, 2]")):
        ini.write_text(init + line + "\n")
        assert main(args) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    class Fitted(Exception):
        pass

    def fit(quotes, start, cfg=None, **kwargs):
        raise Fitted(cfg)

    monkeypatch.setattr(cli.cal, "calibrate", fit)
    ini.write_text(init + "alpha = 1.25\n")
    with pytest.raises(Fitted) as fitted:
        main(args)
    assert fitted.value.args == (FourierConfig(alpha=1.25),)


_IMPORT_PROBE = """
import json, sys
import levyhedge, levyhedge.calibration
from levyhedge import cli
from levyhedge.benchmarks import merton_benchmark
from levyhedge.calibration import Quote, QuoteSet, calibrate

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": loaded()}
out = sys.argv[1]
for family, ini in zip(("merton", "vg"), sys.argv[2:]):
    seen["sweep " + family] = [
        cli.main(["sweep", "--config", ini, "--out", out])] + loaded()
    seen["verify " + family] = [
        cli.main(["verify", "--config", ini, "--paths", "20000"])] + loaded()
quotes = QuoteSet(spot=100.0, quotes=(Quote(0.25, 100.0, 2.5),))
calibrate(quotes, merton_benchmark(), max_iter=1)
seen["calibrate"] = [m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules]
print(json.dumps(seen))
"""


def test_sweep_and_verify_never_import_quadrature_or_optimizer(tmp_path):
    # scipy.integrate serves only the reference oracle and scipy.optimize
    # only calibrate, and the normal CDF of the Merton constants is
    # models._ndtr, so importing the CLI, sweep and verify load no scipy
    # module at all; a fresh interpreter shows which modules load
    inis = []
    for family, text in (("merton", MERTON_INI), ("vg", VG_INI)):
        inis.append(tmp_path / f"{family}.ini")
        inis[-1].write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "out.csv"), *map(str, inis)],
        capture_output=True, text=True, timeout=300, env=env, check=True)
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen == {"import": [],
                    "sweep merton": [EXIT_OK], "verify merton": [EXIT_OK],
                    "sweep vg": [EXIT_OK], "verify vg": [EXIT_OK],
                    "calibrate": ["scipy.optimize"]}
