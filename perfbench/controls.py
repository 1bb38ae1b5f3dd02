"""Negative controls: each gate must report a corrupted output as a failed op.

    python3 perfbench/controls.py

* sweep: the spot-checked point's ``i1`` in the CSV is moved by 1e-8;
* verify: the characteristic function the CLI builds gets a drift 0.02 too
  high (as in the negative-control test of ``tests/test_cli.py``), at
  chi = 1 and 1.05, where the shifted values stay inside their ranges and
  only the 3-SE band can catch them;
* calibrate: the quotes come from a different truth (Merton sigma x1.25,
  delta x0.8), while the gate still expects the benchmark parameters.

Nothing under ``src/`` is edited: the verify control swaps
``levyhedge.cli.char_fn`` for the duration of its op.  Exits 0 when every
control op is reported failed, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import run  # first: it pins BLAS threads before numpy loads

import numpy as np  # noqa: E402

wl = run.import_program()

from levyhedge import cli  # noqa: E402
from levyhedge.calibration import write_quotes  # noqa: E402
from levyhedge.models import merton_model  # noqa: E402

import make_quotes  # noqa: E402

SEED = 1
SPOT_PERTURBATION = 1e-8
DRIFT_SHIFT = 0.02


def sweep_control(workdir: Path):
    w = wl.Sweep(SEED, workdir)
    op = w.make(0)
    res = w.run(op)
    clean = w.check(op, res)
    csv = Path(op.info["csv"])
    lines = csv.read_text(encoding="utf-8").splitlines()
    data = [i for i, ln in enumerate(lines)
            if ln and not ln.startswith("#")][1:]
    row = lines[data[op.info["spot_idx"]]].split(",")
    row[1] = repr(float(row[1]) + SPOT_PERTURBATION)
    lines[data[op.info["spot_idx"]]] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return clean, w.check(op, res)


def _shifted(f, horizon):
    if f is None:
        return None

    def g(z):
        return f(z) * np.exp(1j * np.asarray(z, complex) * DRIFT_SHIFT * horizon)
    return g


def verify_control(workdir: Path):
    w = wl.Verify(SEED, workdir)
    op = w.make(0)
    op.info["chis"] = [1.0, 1.05]
    ini = Path(op.info["ini"])
    text = "".join(ln if not ln.startswith("chis = ") else "chis = 1.0 1.05\n"
                   for ln in ini.read_text(encoding="utf-8").splitlines(True))
    ini.write_text(text, encoding="utf-8")
    original = cli.char_fn

    def wrong_drift(model, horizon):
        phi = original(model, horizon)
        return dataclasses.replace(phi, fn=_shifted(phi.fn, horizon),
                                   fn_analytic=_shifted(phi.fn_analytic, horizon))

    cli.char_fn = wrong_drift
    try:
        res = w.run(op)
    finally:
        cli.char_fn = original
    return None, w.check(op, res)


def calibrate_control(workdir: Path):
    t = wl.truth("merton")
    other = dataclasses.replace(t, sigma=1.25 * t.sigma, delta=0.8 * t.delta)
    qdir = workdir / "quotes"
    qdir.mkdir()
    write_quotes(qdir / "merton.csv", make_quotes.oracle_quotes(merton_model(other)))
    shutil.copy(wl.QUOTE_DIR / "vg.csv", qdir)
    w = wl.Calibrate(SEED, workdir, quote_dir=qdir)
    op = w.make(0)
    return None, w.check(op, w.run(op))


def main() -> int:
    all_failed = True
    (run.ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    for name, control in (("sweep", sweep_control), ("verify", verify_control),
                          ("calibrate", calibrate_control)):
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".perfbench_tmp") as tmp:
            clean, (verdict, why) = control(Path(tmp))
        if clean is not None and clean[0] != wl.OK:
            print(f"control {name}: the uncorrupted op failed: {clean[1]}")
            all_failed = False
        caught = verdict != wl.OK
        print(f"control {name}: {f'{verdict} op' if caught else 'NOT caught'}"
              + (f" ({why})" if why else ""))
        all_failed &= caught
    return 0 if all_failed else 1


if __name__ == "__main__":
    sys.exit(main())
