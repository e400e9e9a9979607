"""The package runs on the Python standard library alone."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from scholar_sounder import errors

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "scholar_sounder"


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = {
        name
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside


def imported_names(tree):
    """Every name an import statement in ``tree`` binds, except those of
    ``from __future__`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE_DIR.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.name,
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text("utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(imported_names(tree)) - used
    assert not unused, f"imported but never used: {sorted(unused)}"


def test_every_benchmark_span_target_exists():
    """bench/spans.py wraps package names by attribute; a renamed or
    deleted one would otherwise only fail a traced benchmark run."""
    path = ROOT / "bench" / "spans.py"
    spans = types.ModuleType("bench_spans")  # executed from source: no bytecode is written
    exec(compile(path.read_text("utf-8"), str(path), "exec"), spans.__dict__)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing


def test_no_runtime_dependencies_declared():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    assert project.get("dependencies", []) == []


# Modules that only a live fetch needs (``xml.sax.saxutils`` imports
# ``urllib.request``, and with it the rest of this list).
LIVE_ONLY_MODULES = ["http.client", "urllib.request", "ssl", "email.parser", "xml.sax", "sqlite3"]

IMPORT_PROBE = """
import json, sys
from scholar_sounder.cli import main

def loaded():
    return [name for name in json.loads(sys.argv[1]) if name in sys.modules]

seen = {"import": loaded()}
out = sys.argv[2]
seen["exit_codes"] = [
    main(["all", "--config", sys.argv[3], "--fixtures", "bundled", "--out", out]),
    main(["analyze", "--in", out + "/coauthors.gexf", "--communities", "--out", out + "/a"]),
] + [
    main(["export", "--in", out + "/coauthors.gexf", "--format", fmt, "--out", out + "/e"])
    for fmt in ("gexf", "graphml", "csv", "json")
]
seen["runs"] = loaded()
print(json.dumps(seen))
"""


def test_offline_runs_never_load_the_http_stack(tmp_path):
    """Fixture runs, analyze and export import no HTTP, TLS, SAX or SQLite module."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "base_tags": ["physical optics"],
        "dictionary": ["optics", "optical", "photonics", "laser"],
        "fetch": {"mode": "fixture"},
    }), "utf-8")
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(LIVE_ONLY_MODULES), str(out), str(config)],
        capture_output=True, text=True, env=env, check=True,
    )
    # The quick start ends with warnings (exit 3); analyze and the exports succeed.
    assert json.loads(result.stdout.splitlines()[-1]) == {
        "import": [], "exit_codes": [3, 0, 0, 0, 0, 0], "runs": [],
    }


FILE_WRITERS = {"open", "write_text", "write_bytes"}


def file_writes(tree):
    """Line numbers of calls to ``open``, ``.open``, ``.write_text`` or
    ``.write_bytes`` outside the body of ``write_atomic``."""
    inside = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "write_atomic"
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in FILE_WRITERS:
            yield node.lineno


def test_write_atomic_is_the_only_file_writer():
    """Every output and the manifest go through cli.write_atomic, so no
    write can leave half a file or bypass the manifest's digests. Cache
    pages are rows of the live cache's SQLite table."""
    writes = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (lines := sorted(file_writes(ast.parse(path.read_text("utf-8")))))
    }
    assert writes == {}


def prints_outside_main(path: Path):
    """Line numbers of ``print`` calls in ``path`` outside ``cli.main``."""
    tree = ast.parse(path.read_text("utf-8"))
    inside = {
        id(inner)
        for node in tree.body
        if path.name == "cli.py" and isinstance(node, ast.FunctionDef) and node.name == "main"
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print" and id(node) not in inside
        ):
            yield node.lineno


def test_only_main_prints():
    """cli.main is the one place that reports an error: every abort reaches
    it as an exception and leaves as one ``error:`` line and an exit code."""
    prints = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (lines := list(prints_outside_main(path)))
    }
    assert prints == {}


# Functions whose ValueError is caught or is a documented programming error:
# ``Graph.add_edge`` guards graphs built in code, and ``from_gexf`` turns
# ``_parse_bool``'s and ``_parse_double``'s into a FormatError.
VALUE_ERROR_RAISERS = {"add_edge", "_parse_bool", "_parse_double"}


def foreign_raises(tree):
    """``(line, name)`` of each ``raise X`` or ``raise X(…)`` whose ``X`` is not
    a toolkit error, outside the functions in VALUE_ERROR_RAISERS."""
    inside = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in VALUE_ERROR_RAISERS
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None or id(node) in inside:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
        cls = getattr(errors, name or "", None)
        if not (isinstance(cls, type) and issubclass(cls, errors.ScholarSounderError)):
            yield node.lineno, name


def test_src_raises_only_toolkit_errors():
    """cli.main maps every toolkit error to an exit code and a one-line
    message, so any other exception raised in src/ would end in a traceback."""
    raises = {
        path.name: found
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (found := sorted(foreign_raises(ast.parse(path.read_text("utf-8")))))
    }
    assert raises == {}


def test_every_fetch_error_subclass_is_caught_by_name():
    """A fetch error type earns its place only where a caller acts on it: a
    subclass of FetchError that no ``except`` clause in src/ names is one
    more type that no caller tells apart from FetchError."""
    caught = {
        name.id
        for path in PACKAGE_DIR.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for name in ast.walk(node.type)
        if isinstance(name, ast.Name)
    }
    subclasses = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.FetchError) and cls is not errors.FetchError
    }
    assert subclasses and subclasses <= caught, sorted(subclasses - caught)
