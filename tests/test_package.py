import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import mobsynth

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
PACKAGE = Path(mobsynth.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in mobsynth.__all__ if not hasattr(mobsynth, name)]
    assert missing == []


def test_every_traced_entry_point_resolves():
    # the traced benchmark reads an entry point it cannot find as 0, so a
    # rename would silently empty its per-layer metrics
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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


def test_only_dataio_reads_or_writes_json_or_csv():
    # one owner for the file formats: a command that wants a file asks dataio
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in ("json", "csv"):
                    owners.setdefault(name.split(".")[0], set()).add(path.stem)
    assert owners == {"json": {"dataio"}, "csv": {"dataio"}}
