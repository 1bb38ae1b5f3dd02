"""Source hygiene checks that need only the standard library: every exported
name resolves, no module imports a name it never uses, no production
module reaches the adaptive-quadrature oracle ``fourier.transform``, the
oracle does not reach the batch engine it checks, and the condition
integral stays on fixed nodes; one function checks the damping line
against the strip and one evaluation step finishes every engine
transform; scipy.integrate serves only the oracle,
scipy.optimize only the body of ``calibrate``, no module imports
scipy.special, and the quadrature oracle
of the Levy-measure moments names none of the closed forms it checks.
The hedges read no jump measure, and every def of the library is named
somewhere outside itself.  Threads serve only the Monte Carlo oracle:
importing the CLI, ``sweep`` and ``calibrate`` start none, and only
``oracle_mc`` imports a thread API."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import levyhedge

SRC = Path(levyhedge.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"levyhedge.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"levyhedge.{name}.__all__ lists undefined {missing}"


def test_package_reexports_public_names():
    # every name levyhedge/__init__ imports from a submodule is defined
    # there and listed in that submodule's __all__
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    stale = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"levyhedge.{node.module}")
            for alias in node.names:
                if not (hasattr(levyhedge, alias.asname or alias.name)
                        and alias.name in getattr(mod, "__all__", ())):
                    stale.append(f"{node.module}.{alias.name}")
    assert not stale, f"levyhedge/__init__ re-exports non-public {stale}"


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # a name listed in __all__ is used by being exported
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    unused = _unused_imports((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert not unused, f"levyhedge/{name}.py imports unused {unused}"


def test_unused_import_check_detects_one():
    src = "from __future__ import annotations\nimport math\nimport os\nx = math.pi\n"
    assert _unused_imports(src) == ["os (line 3)"]


def _names(tree: ast.AST, name: str):
    """Lines under ``tree`` that name ``name``: as a variable, an attribute
    or an imported name."""
    lines = set()
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias)
                    and name in (node.name, node.asname))):
            lines.add(node.lineno)
    return sorted(lines)


def _references(source: str, name: str):
    """Lines of ``source`` that name ``name``."""
    return _names(ast.parse(source), name)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "fourier"])
def test_transform_is_the_oracle_only(name):
    # production paths take every transform from the batch engine; the
    # per-strike adaptive quadrature stays in fourier as the test oracle
    found = _references((SRC / f"{name}.py").read_text(encoding="utf-8"),
                        "transform")
    assert not found, f"levyhedge/{name}.py references transform on {found}"


def test_transform_reference_check_detects_each_form():
    src = ("from .fourier import transform\n"
           "from . import fourier\n"
           "x = fourier.transform\n"
           "y = transform\n"
           "transform_batch = 1\n")
    assert _references(src, "transform") == [1, 3, 4]


# the adaptive oracle and the parts of the batch engine it must not reach,
# so that no speed-up routes the reference through the engine it checks
ORACLE_FUNCTIONS = ("transform", "_segment", "_tail", "_tail_contour", "_quad")
ENGINE_NAMES = ("transform_batch", "_Nodes", "_panel_rule", "_asymptote_tail",
                "call_prices")


def _function_references(source: str, functions, names):
    """(function, name, line) for each of ``names`` that one of the
    top-level ``functions`` of ``source`` names."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            found += [(node.name, name, line) for name in names
                      for line in _names(node, name)]
    return sorted(found, key=lambda f: f[2])


def _engine_references(source: str):
    """(function, name, line) for each engine name that an oracle function
    of ``source`` names."""
    return _function_references(source, ORACLE_FUNCTIONS, ENGINE_NAMES)


def test_oracle_stays_independent_of_the_engine():
    source = (SRC / "fourier.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert set(ORACLE_FUNCTIONS) <= defined
    found = _engine_references(source)
    assert not found, f"the oracle names the batch engine: {found}"


def test_engine_reference_check_detects_each_form():
    src = ("def transform():\n"
           "    from .fourier import call_prices\n"
           "    return fourier._panel_rule\n"
           "def _quad():\n"
           "    return _Nodes()\n"
           "def transform_batch():\n"
           "    return _asymptote_tail\n")
    assert _engine_references(src) == [("transform", "call_prices", 2),
                                       ("transform", "_panel_rule", 3),
                                       ("_quad", "_Nodes", 5)]


def test_condition_integral_stays_off_adaptive_quadrature():
    # the condition integral samples phi once on fixed nodes; neither
    # scipy's quad nor the oracle transform may creep back in
    source = (SRC / "fourier.py").read_text(encoding="utf-8")
    assert "theorem4_condition_integral" in {
        node.name for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)}
    found = _function_references(source, ("theorem4_condition_integral",),
                                 ("quad", "transform"))
    assert not found, f"the condition integral names {found}"


def _scopes_reading(source: str, name: str):
    """Dotted names of the innermost functions and classes of ``source``
    ("" at module level) that read ``name``: load it as a variable or an
    attribute, or import it."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if ((isinstance(child, ast.Name) and child.id == name
                 and isinstance(child.ctx, ast.Load))
                    or (isinstance(child, ast.Attribute) and child.attr == name
                        and isinstance(child.ctx, ast.Load))
                    or (isinstance(child, ast.alias)
                        and name in (child.name, child.asname))):
                found.add(scope)
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_one_strip_check_and_one_evaluation_step():
    # the engine's entry points share one damping-line check and one
    # evaluation step: only _check_strip reads a strip, only
    # _Nodes.integrate adds the asymptote past the last contour node, and
    # the prefactor is applied there and in the oracle's transform alone
    source = (SRC / "fourier.py").read_text(encoding="utf-8")
    assert _scopes_reading(source, "_tails") == ["_Nodes.integrate"]
    assert _scopes_reading(source, "_prefactor") == ["_Nodes.integrate",
                                                     "transform"]
    found = [(name, scope)
             for name in MODULES + ["__init__"]
             for scope in _scopes_reading(
                 (SRC / f"{name}.py").read_text(encoding="utf-8"), "strip_im")]
    assert found == [("fourier", "_check_strip")]


def test_reader_check_detects_each_form():
    src = ("from .fourier import _tails\n"
           "class _Nodes:\n"
           "    strip_im: tuple\n"
           "    def integrate(self, phi):\n"
           "        return phi.strip_im, _tails\n"
           "def f(phi):\n"
           "    phi.strip_im = 1\n"
           "    g = _tails\n"
           "    return CharFn(strip_im=2)\n")
    assert _scopes_reading(src, "_tails") == ["", "_Nodes.integrate", "f"]
    assert _scopes_reading(src, "strip_im") == ["_Nodes.integrate"]


def _scipy_imports(source: str, package: str = "integrate"):
    """(scope, line) of each import of scipy.<package> in ``source``, with
    scope the dotted name of the enclosing functions and classes ("" at
    module level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module] + [f"{child.module}.{alias.name}"
                                            for alias in child.names]
            else:
                modules = []
            if any(m and m.split(".")[:2] == ["scipy", package]
                   for m in modules):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_adaptive_quadrature_is_imported_by_the_oracle_only():
    # every Levy-measure moment is closed-form; QUADPACK serves only the
    # reference transform, and the quadrature oracle of the moments lives
    # in tests/quadrature.py
    found = [(name, scope)
             for name in MODULES + ["__init__"]
             for scope, _ in _scipy_imports(
                 (SRC / f"{name}.py").read_text(encoding="utf-8"))]
    assert found == [("fourier", "_quad")]


def test_integrate_import_check_detects_each_form():
    src = ("import scipy.integrate\n"
           "from scipy import integrate, special\n"
           "class A:\n"
           "    def f(self):\n"
           "        from scipy.integrate import quad\n"
           "def g():\n"
           "    from scipy.special import ndtr\n")
    assert _scipy_imports(src) == [("", 1), ("", 2), ("A.f", 5)]
    assert _scipy_imports(src, "special") == [("", 2), ("g", 7)]


def test_no_module_imports_special_functions():
    # the Merton normal CDF is models._ndtr, a port of scipy's kernel:
    # scipy.special would cost every verb about 0.15 s of set-up
    found = [(name, scope)
             for name in MODULES + ["__init__"]
             for scope, _ in _scipy_imports(
                 (SRC / f"{name}.py").read_text(encoding="utf-8"), "special")]
    assert found == []


def test_optimizer_is_imported_inside_calibrate_only():
    # scipy.optimize takes about 0.3 s to import: at module level it would
    # add that to the set-up of every verb, sweep and verify included
    found = [(name, scope)
             for name in MODULES + ["__init__"]
             for scope, _ in _scipy_imports(
                 (SRC / f"{name}.py").read_text(encoding="utf-8"), "optimize")]
    assert found == [("calibration", "calibrate")]


def test_optimizer_import_check_detects_each_form():
    src = ("from scipy.optimize import least_squares\n"
           "def calibrate():\n"
           "    import scipy.optimize\n"
           "    from scipy import integrate\n")
    assert _scipy_imports(src, "optimize") == [("", 1), ("calibrate", 3)]


# what the quadrature oracle of tests/quadrature.py checks, so it may not
# name any of it
CLOSED_FORMS = ("exp_moment", "exp_moment_star", "mmm_cumulant",
                "split_moment", "x_exp_moment")


def _closed_form_references(source: str):
    """(function, name, line) for each closed form that a top-level
    function of ``source`` names."""
    functions = [node.name for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)]
    return _function_references(source, functions, CLOSED_FORMS)


def test_quadrature_oracle_stays_independent_of_the_closed_forms():
    source = (Path(__file__).parent / "quadrature.py").read_text(encoding="utf-8")
    found = _closed_form_references(source)
    assert not found, f"the quadrature oracle names a closed form: {found}"


def test_closed_form_reference_check_detects_each_form():
    src = ("from levyhedge import mmm_cumulant\n"
           "def oracle(model, z):\n"
           "    return mmm_cumulant(model, z)\n"
           "def moment(measure, w):\n"
           "    g = measure.exp_moment\n"
           "    return model.exp_moment_star(w) + measure.x_exp_moment(w)\n")
    assert _closed_form_references(src) == [
        ("oracle", "mmm_cumulant", 3), ("moment", "exp_moment", 5),
        ("moment", "exp_moment_star", 6), ("moment", "x_exp_moment", 6)]


# what the hedges would read of the jump measure: they are assembled from
# engine results and the constants of MmmModel alone
MEASURE_NAMES = ("measure", "exp_moment", "split_moment")


def _measure_references(source: str):
    """(name, line) for each of MEASURE_NAMES that ``source`` names."""
    return sorted(((name, line) for name in MEASURE_NAMES
                   for line in _references(source, name)), key=lambda f: f[1])


def test_hedging_reads_no_jump_measure():
    found = _measure_references((SRC / "hedging.py").read_text(encoding="utf-8"))
    assert not found, f"levyhedge/hedging.py reads the jump measure: {found}"


def test_measure_reference_check_detects_each_form():
    src = ("from .levy_core import split_moment\n"
           "def bound(model, measure):\n"
           "    return model.measure.exp_moment(4.0)\n"
           "brace = measure_total\n")
    assert _measure_references(src) == [("split_moment", 1), ("measure", 3),
                                        ("exp_moment", 3)]


# the directories whose files may reference a def of src/levyhedge
REFERENCE_DIRS = ("src", "tests", "perfbench")


def _definitions(tree: ast.AST):
    """(name, is_method, first line, last line) of every def under ``tree``;
    a method is a def in a class body."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child.name, in_class, child.lineno, child.end_lineno))
                visit(child, False)
            else:
                visit(child, in_class or isinstance(child, ast.ClassDef))

    visit(tree, False)
    return found


def _unreferenced_defs(sources, checked):
    """An entry "<file>:<line> <name>" for each non-dunder def in the files
    ``checked`` of ``sources`` (file name to source) that no file names
    outside the def itself: a method only as an attribute (``x.name``), a
    function also as a variable or an imported name."""
    trees = {f: ast.parse(src) for f, src in sources.items()}
    refs = {}   # name -> [(file, line, as an attribute)]
    for f, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((f, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((f, node.lineno, True))
            elif isinstance(node, ast.alias):
                for name in {node.name, node.asname} - {None}:
                    refs.setdefault(name, []).append((f, node.lineno, False))
    missing = []
    for f in checked:
        for name, method, lo, hi in _definitions(trees[f]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any((attr or not method) and not (rf == f and lo <= line <= hi)
                       for rf, line, attr in refs.get(name, ())):
                missing.append(f"{f}:{lo} {name}")
    return missing


def test_every_def_is_referenced():
    # a def that nothing in the library, its tests or its benchmark names
    # is dead code
    root = SRC.parent.parent
    sources = {str(p.relative_to(root)): p.read_text(encoding="utf-8")
               for d in REFERENCE_DIRS for p in sorted((root / d).rglob("*.py"))}
    checked = [f for f in sources if Path(f).parent == SRC.relative_to(root)]
    assert len(checked) == len(MODULES) + 1
    missing = _unreferenced_defs(sources, checked)
    assert not missing, f"defs that nothing references: {missing}"


def test_unreferenced_def_check_detects_each_form():
    lib = ("class Quotes:\n"
           "    def expiries(self):\n"
           "        return self.expiries()\n"
           "    def spot(self):\n"
           "        return 1\n"
           "    def __len__(self):\n"
           "        return 0\n"
           "def price(expiries):\n"
           "    return expiries\n"
           "def orphan():\n"
           "    return orphan\n"
           "def used():\n"
           "    def inner():\n"
           "        return 1\n"
           "    return inner()\n")
    user = "from lib import used\nq.spot\nprice(1)\n"
    assert _unreferenced_defs({"lib.py": lib, "user.py": user}, ["lib.py"]) == [
        "lib.py:2 expiries", "lib.py:10 orphan"]


# the modules that start threads; within src/ only the Monte Carlo oracle
# may use them, since the engine stays single-threaded: the thread pool
# that sweep once had cost more than it returned
THREAD_MODULES = ("threading", "concurrent.futures")


def _thread_imports(source: str):
    """Lines of ``source`` that import a module of ``THREAD_MODULES`` or a
    name from one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module] + [f"{node.module}.{alias.name}"
                                       for alias in node.names]
        else:
            continue
        if any(m and any(m == t or m.startswith(t + ".") for t in THREAD_MODULES)
               for m in modules):
            found.append(node.lineno)
    return found


def test_threads_are_imported_by_the_monte_carlo_oracle_only():
    found = [name for name in MODULES + ["__init__"]
             if _thread_imports((SRC / f"{name}.py").read_text(encoding="utf-8"))]
    assert found == ["oracle_mc"]


def test_thread_import_check_detects_each_form():
    src = ("import threading\n"
           "from concurrent.futures import ThreadPoolExecutor\n"
           "import concurrent.futures as cf\n"
           "from concurrent import futures\n"
           "import threadingx\n"
           "def f():\n"
           "    from threading import Lock\n")
    assert _thread_imports(src) == [1, 2, 3, 4, 7]


_THREAD_PROBE = """
import json, sys, threading
base = threading.active_count()
from levyhedge import cli, oracle_mc

def started(rc):
    return [rc, threading.active_count() - base]

ini, quotes, cal_ini, tmp = sys.argv[1:]
seen = {"import": threading.active_count() - base}
seen["sweep"] = started(cli.main(["sweep", "--config", ini, "--out", tmp + "/sweep.csv"]))
seen["calibrate"] = started(cli.main(["calibrate", "--config", cal_ini, "--quotes",
                                      quotes, "--family", "vg"]))
seen["verify"] = started(cli.main(["verify", "--config", ini, "--paths", "20000"]))
seen["workers"] = oracle_mc._WORKERS
print(json.dumps(seen))
"""

PROBE_INI = """
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


def test_only_monte_carlo_starts_threads(tmp_path):
    # a fresh interpreter, since an earlier test may have started the
    # Monte Carlo pool here; sweep and calibrate must start no thread, so
    # that their set-up and throughput cannot move with one, and verify,
    # which does start the pool on a host of several CPUs, shows that the
    # probe sees threads
    ini = tmp_path / "vg.ini"
    ini.write_text(PROBE_INI)
    cal_ini = tmp_path / "cal.ini"
    cal_ini.write_text("[calibration]\ninit_c_par = 7.1\n"
                       "init_g_par = 29.0\ninit_m_par = 34.5\n")
    quotes = Path(__file__).parent / "golden" / "quotes_vg.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, str(ini), str(quotes), str(cal_ini),
         str(tmp_path)], capture_output=True, text=True, timeout=300, env=env,
        check=True)
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen["import"] == 0
    assert seen["sweep"] == [0, 0]
    assert seen["calibrate"] == [0, 0]
    assert seen["verify"][0] == 0
    assert (seen["verify"][1] > 0) == (seen["workers"] > 1)
