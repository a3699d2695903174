"""Packaging: the distribution declares what the package imports."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src" / "structkv").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_distributions() -> set[str]:
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    # PEP 508: the name comes first, before any extras, version or marker
    return {
        re.match(r"[A-Za-z0-9._-]+", spec).group().lower().replace("_", "-")
        for spec in doc["project"]["dependencies"]
    }


def test_third_party_imports_are_declared():
    third_party = {
        name
        for name in imported_top_level_modules()
        if name not in sys.stdlib_module_names and name != "structkv"
    }
    assert "numpy" in third_party  # the walk found the package's imports
    # every third-party module imported so far shares its distribution's name
    declared = declared_distributions()
    missing = sorted(n for n in third_party if n.lower().replace("_", "-") not in declared)
    assert not missing, f"imported but not in pyproject dependencies: {missing}"


def test_benchmark_imports_resolve():
    """Every name the benchmark imports from the package exists, so a rename
    in the package fails here rather than in a benchmark run."""
    imported = 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module, name in names:
                if module.split(".")[0] != "structkv":
                    continue
                owner = importlib.import_module(module)
                if name is not None and not hasattr(owner, name):
                    importlib.import_module(f"{module}.{name}")  # a submodule, or an error
                imported += 1
    assert imported  # the walk found the benchmark's imports


def test_trace_targets_resolve(monkeypatch):
    """Every function the benchmark's tracer wraps exists and is callable, so
    a rename in the package fails here instead of turning a trace layer into
    null."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import TARGETS

    for target in TARGETS:
        obj = importlib.import_module(target.module)
        for part in target.attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{target.span}: {target.module}:{target.attr} is gone"
    assert len(TARGETS) > 20  # the tracer's table was read


def test_traced_mock_plans_record_every_mock_span(monkeypatch):
    """The tracer wraps functions by name, so a refactor that takes one off
    the planning path turns its layer into null without failing a plan.
    Cold, second-sight and warm plans of the golden fixture, traced, must
    record every span of the mock path between them."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import TARGETS, Tracer
    from plan_helpers import GOLDEN_FILES, GOLDEN_QUERY, golden_config
    from structkv import pipeline

    monkeypatch.setattr(pipeline, "_MEMO", {})
    # the corpus is in memory, and the HTTP backends and sidecar are off
    elsewhere = {
        "pipeline.load_corpus", "scoring.backend.http", "attention.window.http",
        "backend.post", "cpg.external",
    }
    tracer = Tracer()
    tracer.install()
    try:
        plans = [
            pipeline.run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, golden_config())[0].to_json()
            for _ in range(3)
        ]
    finally:
        tracer.uninstall()
    assert plans[0] == plans[1] == plans[2]
    assert tracer.missing == [] and tracer.observe_errors == {}
    recorded = {span[1] for span in tracer.spans}
    unrecorded = sorted(t.span for t in TARGETS if t.span not in elsewhere | recorded)
    assert not unrecorded, f"traced plans recorded no span for {unrecorded}"


def test_source_lines_fit_in_100_columns():
    """Net source lines measure simplicity, so no line is cut by cramming two
    into one: every line of the package stays within 100 columns."""
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted((ROOT / "src" / "structkv").glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long_lines, f"lines over 100 columns: {long_lines}"


def test_package_does_not_import_requests():
    """The HTTP backends speak through ``http.client``; ``requests`` is a
    test and benchmark dependency only."""
    assert "requests" not in imported_top_level_modules()


def test_json_is_decoded_in_one_place():
    """Every JSON input goes through ``plan.decode_json``: no module but
    ``plan.py`` imports ``orjson``, and none calls ``json.loads``."""
    offenders = []
    for path in sorted((ROOT / "src" / "structkv").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            for name in names:
                if name == "json.loads" or (
                    name.split(".")[0] == "orjson" and path.name != "plan.py"
                ):
                    offenders.append(f"{path.name}:{node.lineno} uses {name}")
    assert not offenders, offenders
