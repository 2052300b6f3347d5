import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import mobsynth

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PACKAGE = Path(mobsynth.__file__).parent


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_entry_point_resolves():
    # the traced benchmark reads an entry point it cannot find as 0, so a
    # rename would silently empty its per-layer metrics
    tracer = _tracer()
    missing = []
    for module, path, _ in tracer.ENTRY_POINTS:
        owner = importlib.import_module(f"mobsynth.{module}")
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert tracer.ENTRY_POINTS and missing == []


def _imports():
    """(module of mobsynth, the absolute module it imports), for each
    import statement at any depth of the code."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from ((path.stem, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                yield path.stem, node.module


def _importers(*packages):
    """{package: the modules of mobsynth that import it}, for each of the
    top-level ``packages`` one of them imports."""
    owners = {}
    for module, name in _imports():
        if name.split(".")[0] in packages:
            owners.setdefault(name.split(".")[0], set()).add(module)
    return owners


def _defined_names(tree):
    """Public def and class names at module level and in class bodies."""
    bodies, names = [tree.body], set()
    while bodies:
        for node in bodies.pop():
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    names.add(node.name)
                if isinstance(node, ast.ClassDef):
                    bodies.append(node.body)
    return names


def _read_names(tree):
    """Names an AST reads: each Name, Attribute and import alias."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_public_name_is_read_outside_the_tests():
    # nothing stays that no pipeline path or documented API uses: a public
    # def or class of src/ is read by src/ code, the bench, a traced entry
    # point or a README code span
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))]
    read = {name for _, path, _ in _tracer().ENTRY_POINTS for name in path.split(".")}
    for tree in trees + [ast.parse(path.read_text(encoding="utf-8"))
                         for path in sorted(TRACER.parent.glob("*.py"))]:
        read |= _read_names(tree)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for span in re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S):
        read.update(re.findall(r"\w+", span))
    unread = sorted(set().union(*map(_defined_names, trees)) - read)
    assert unread == [], unread


def test_only_dataio_reads_or_writes_json_or_csv():
    # one owner for the file formats: a command that wants a file asks dataio
    assert _importers("json", "csv") == {"json": {"dataio"}, "csv": {"dataio"}}


def test_only_copula_imports_scipy():
    # one owner for the scipy dependency: a process that fits or loads no
    # vine never loads it (README, Install)
    assert _importers("scipy") == {"scipy": {"copula"}}


def test_src_imports_only_scipy_special_and_scipy_optimize():
    # the tests alone use scipy.stats; copula's h-inverse loads
    # scipy.optimize lazily (README, Dependencies)
    scipy = {}
    for module, name in _imports():
        if name.split(".")[0] == "scipy":
            scipy.setdefault(name, set()).add(module)
    assert scipy == {"scipy.special": {"copula"}, "scipy.optimize": {"copula"}}


# the inputs of a pipeline run, in one interpreter; the targets file is
# written as tests/test_cli.py's _targets_file writes it
PIPELINE_INPUTS = """
import csv, sys
from mobsynth import dataio
from mobsynth.cli import main
from mobsynth.geogrid import decode

def cli(*argv):
    code = main(list(argv))
    if code:
        sys.exit(f"{argv} exited {code}")

cli("--seed", "1", "simulate", "--out", "real.csv", "--users", "6", "--steps", "60",
    "--hotspots", "10")
cli("--seed", "2", "simulate", "--out", "other.csv", "--users", "4", "--steps", "60",
    "--hotspots", "10")
cli("ingest", "--input", "real.csv", "--out", "train.csv")
with open("targets.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["user_id", "timestamp", "lat", "lon", "is_member"])
    for path, flag in (("real.csv", 1), ("other.csv", 0)):
        loaded = dataio.load_corpus(path)
        for trace in loaded.traces:
            lat, lon = decode(loaded.spec, trace.cells)
            for ts, a, o in zip(trace.timestamps.tolist(), lat.tolist(), lon.tolist()):
                w.writerow([f"{flag}_{trace.user_id}", ts, repr(a), repr(o), flag])
"""

# every stage of the pipeline, for both model types
PIPELINE = PIPELINE_INPUTS + """
cli("--seed", "3", "fit", "--corpus", "train.csv", "--model-type", "vine",
    "--max-scores", "150", "--out", "vine.json")
cli("fit", "--corpus", "train.csv", "--model-type", "markov", "--out", "markov.json")
cli("--seed", "4", "generate", "--model", "markov.json", "--out", "markov_syn.csv",
    "--n-traces", "6", "--trace-len", "30")
cli("--seed", "5", "generate", "--model", "vine.json", "--out", "syn.csv",
    "--n-traces", "6", "--trace-len", "30")
cli("--seed", "6", "evaluate", "--real", "train.csv", "--syn", "syn.csv",
    "--outdir", "report", "--tau-max", "4", "--n-permutations", "10",
    "--targets", "targets.csv")
cli("--seed", "7", "attack", "--syn", "syn.csv", "--targets", "targets.csv",
    "--out", "priv.json")
# a submodule of either loads the package with it
loaded = sorted({"scipy.stats", "scipy.optimize"} & sys.modules.keys())
if loaded:
    sys.exit(f"the pipeline loaded {loaded}")
"""


def test_pipeline_loads_neither_scipy_stats_nor_scipy_optimize(tmp_path, subprocess_pythonpath):
    # no stage calls into them, yet importing them would about double a
    # fresh process's import time and memory (README, Dependencies)
    env = dict(os.environ, PYTHONPATH=subprocess_pythonpath)
    env.pop("MOBSYNTH_OUTDIR", None)
    r = subprocess.run([sys.executable, "-c", PIPELINE], cwd=tmp_path, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


IMPORT_DATAIO = """
import sys
import mobsynth.dataio
layers = {f"mobsynth.{m}" for m in ("copula", "generators", "metrics", "privacy")}
loaded = sorted(m for m in sys.modules if m in layers or m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"import mobsynth.dataio loaded {loaded}")
"""


def test_importing_dataio_loads_no_model_layer_nor_scipy(subprocess_pythonpath):
    # the package namespace imports nothing, so a script that only reads
    # or writes corpus files starts without the model code (README, Library use)
    env = dict(os.environ, PYTHONPATH=subprocess_pythonpath)
    r = subprocess.run([sys.executable, "-c", IMPORT_DATAIO], env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


# every stage of a Markov-only pipeline
MARKOV_PIPELINE = PIPELINE_INPUTS + """
cli("fit", "--corpus", "train.csv", "--model-type", "markov", "--out", "markov.json")
cli("--seed", "4", "generate", "--model", "markov.json", "--out", "syn.csv",
    "--n-traces", "6", "--trace-len", "30")
cli("--seed", "6", "evaluate", "--real", "train.csv", "--syn", "syn.csv",
    "--outdir", "report", "--tau-max", "4", "--n-permutations", "10",
    "--targets", "targets.csv")
cli("--seed", "7", "attack", "--syn", "syn.csv", "--targets", "targets.csv",
    "--out", "priv.json")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"a Markov pipeline loaded {loaded}")
"""


def test_markov_pipeline_loads_no_scipy(tmp_path, subprocess_pythonpath):
    # only a vine needs copula, and copula alone imports scipy
    env = dict(os.environ, PYTHONPATH=subprocess_pythonpath)
    env.pop("MOBSYNTH_OUTDIR", None)
    r = subprocess.run([sys.executable, "-c", MARKOV_PIPELINE], cwd=tmp_path, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
