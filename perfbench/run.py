"""levyhedge benchmark: throughput of the ``sweep``, ``verify`` and
``calibrate`` CLI verbs, with a traced run for per-layer figures.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/`` of the
same tree.  One process and one closed-loop client: each op (one
``levyhedge.cli.main`` call) starts when the previous one returns, with no
thread pool, and BLAS is held to one thread.  Ops run in rounds of one
Merton and one variance-gamma op (for sweep, one of each per design
horizon); whole rounds repeat until the op time reaches ``--seconds``.
Every op passes a correctness gate outside its timed region, or counts as
failed: ``failed`` counts ops the program reported as failed (non-zero
exit, exception) and ops whose output the gate rejects; the latter also
make ``correct`` false.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

* ``setup_s``: process start to the first timed op (imports, input files,
  quote file, reference models), the median of this process and six
  fresh processes that only set up, since single set-ups a second apart
  differ by up to 40% on a shared host;
* ``peak_rss_mb``: peak resident memory of this process;
* ``items_per_s``: gated work per second of op time: strategy points for
  ``sweep``, verified strikes for ``verify`` (5 Fourier/MC pairs each) and
  fits for ``calibrate``.  The workload-specific name (``points_per_s``,
  ``strikes_per_s``, ``fits_per_min``) is printed on the line before.

``--trace 1`` runs one round three times on the same inputs: traced,
untraced and traced again.  It prints per-layer calls, busy time, self time
and evaluation counts from the second traced pass, the tracing overhead
against the untraced pass, and is incorrect if any exact count differs
between the two traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from statistics import median  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7

# exact counts that must repeat between two traced passes on one input
EXACT_COUNT_SUFFIXES = (".calls", ".points", ".iterations")
LAYER_STATS = {
    "fourier.transform.{kind}.{regime}": ("calls", "busy_s"),
    "levy_core.mmm_cumulant": ("calls", "points", "busy_s"),
    "fourier.char_fn": ("calls", "busy_s"),
    "fourier.theorem4_condition_integral": ("calls", "busy_s"),
    "hedging.sweep": ("calls", "busy_s", "self_s"),
    "hedging.strategy_point": ("calls", "self_s"),
    "oracle_mc.simulate_log_returns": ("calls", "busy_s"),
    "oracle_mc.i2_from_sample": ("calls", "busy_s"),
    "oracle_mc.i1_from_sample": ("busy_s",),
    "oracle_mc.tail_upper_from_sample": ("busy_s",),
    "oracle_mc.price_from_sample": ("busy_s",),
    "calibration.calibrate": ("calls", "busy_s", "self_s", "iterations"),
    "calibration.rmse": ("calls", "busy_s"),
    "levy_core.to_mmm": ("calls", "busy_s"),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"calls": "count", "points": "count", "iterations": "count",
         "busy_s": "s", "self_s": "s"}


def layer_metric_names():
    names = []
    for pattern, stats in LAYER_STATS.items():
        spans = ([pattern.format(kind=k, regime=r)
                  for k in ("i1", "i2", "tail", "price") for r in ("atm", "osc")]
                 if "{" in pattern else [pattern])
        names += [f"{s}.{st}" for s in spans for st in stats]
    return names + ["trace.op_s", "trace.overhead_s"]


def import_program():
    """Import levyhedge from this tree's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import levyhedge
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import levyhedge from {src}: {exc}")
    if Path(levyhedge.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: levyhedge imported from {levyhedge.__file__}, "
                 f"not from {src}")
    import workloads
    return workloads


def machine_record() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS}


def setup_samples(args, own: float) -> list:
    """This process's set-up time plus fresh processes that only set up."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Runner:
    def __init__(self, workload, wl):
        self.w = workload
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.items = 0
        self.op_s = 0.0

    def op(self, index, tracer=None):
        w, wl = self.w, self.wl
        op = w.make(index)
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        res = w.run(op)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        try:
            verdict, why = w.check(op, res)
        except Exception as exc:  # an output the gate cannot read is wrong
            verdict, why = wl.WRONG, f"gate raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        self.op_s += dt
        if verdict == wl.OK:
            self.items += op.items
        else:
            self.failed += 1
            self.wrong += verdict == wl.WRONG
            print(f"perfbench: {w.name} op {index} ({op.family}) {verdict}: "
                  f"{why}", file=sys.stderr)
        return dt


def run_untraced(runner, seconds):
    """Whole rounds until the op time reaches ``seconds``, so that every
    run holds the same mix of ops."""
    index = 0
    while index == 0 or runner.op_s < seconds:
        for _ in range(runner.w.round_size):
            runner.op(index)
            index += 1


def layer_values(tracer) -> dict:
    vals = {}
    for name in layer_metric_names():
        if name.startswith("trace."):
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "iterations":
            vals[name] = tracer.counters.get(f"{span}.iterations", 0)
        else:
            st = tracer.stats.get(span)
            vals[name] = getattr(st, stat) if st is not None else 0
    return vals


def run_traced(runner):
    """Round 0 traced, untraced, traced again.  Per-layer values come from
    the second traced pass, after warm-up, and its exact counts must equal
    the first's; overhead is its op time minus the untraced pass's, whose
    wrappers stay installed with recording off."""
    import spans
    tracer = spans.Tracer()
    spans.install(tracer)
    ops = range(runner.w.round_size)
    for i in ops:
        runner.op(i, tracer)
    counts = layer_values(tracer)
    base = sum(runner.op(i) for i in ops)
    tracer.reset()
    op_s = sum(runner.op(i, tracer) for i in ops)
    vals = layer_values(tracer)
    drift = [k for k in vals if k.endswith(EXACT_COUNT_SUFFIXES)
             and vals[k] != counts[k]]
    for k in drift:
        print(f"perfbench: count {k} differs between traced passes: "
              f"{counts[k]} vs {vals[k]}", file=sys.stderr)
    vals["trace.op_s"] = op_s
    vals["trace.overhead_s"] = op_s - base
    return vals, not drift


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "verify", "calibrate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    args = ap.parse_args(argv)

    wl = import_program()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        workload = wl.WORKLOADS[args.workload](args.seed, Path(tmp))
        workload.make(0)
        own_setup = time.perf_counter() - _T_START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        runner = Runner(workload, wl)
        if args.trace:
            vals, counts_exact = run_traced(runner)
            metrics = {k: {"value": v, "unit": UNITS.get(k.rsplit(".", 1)[1], "s")}
                       for k, v in vals.items()}
            correct = runner.wrong == 0 and counts_exact
        else:
            setup = setup_samples(args, own_setup)
            run_untraced(runner, args.seconds)
            rate = runner.items / runner.op_s
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            name, scale, unit = workload.rate
            print(f"{name} = {scale * rate:.6g} {unit} ({runner.items} "
                  f"{workload.item} in {runner.op_s:.3f} s of op time, "
                  f"{runner.attempted} ops, {runner.failed} failed)")
            metrics = {"setup_s": {"value": median(setup), "unit": "s"},
                       "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
                       "items_per_s": {"value": rate, "unit": "1/s"}}
            correct = runner.wrong == 0
    print("machine: " + json.dumps(machine_record()))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
