import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import bjaudit

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno


def _names_used(node):
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    return [getattr(node, "id", None), getattr(node, "attr", None)]


def test_only_jsonutil_checks_report_finiteness():
    # jsonutil writes every report: no other module imports or calls
    # require_finite, so a hand-written CSV writer elsewhere fails here
    package = Path(bjaudit.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "jsonutil.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "require_finite" in _names_used(node)
    ]
    assert found == []


def test_only_jsonutil_imports_csv():
    # jsonutil owns the CSV dialect, read and written: a second reader or
    # writer built on the csv module elsewhere fails here
    package = Path(bjaudit.__file__).resolve().parent
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "jsonutil.py"
        for module, lineno in _imported_modules(path)
        if module.split(".")[0] == "csv"
    ]
    assert found == []


def _is_draw_method(node):
    """.integers, .random or .uniform, but not the module np.random."""
    if not (isinstance(node, ast.Attribute) and node.attr in ("integers", "random", "uniform")):
        return False
    return not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def test_no_module_calls_a_generator_draw_method():
    # random_atoms decodes its draws from the raw PCG64 words: a Generator
    # draw method (integers, random, uniform), called or bound to a name to
    # call later, anywhere in the package would be a second draw path beside
    # the decode, and fails here
    package = Path(bjaudit.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_draw_method(node)
    ]
    assert found == []


def test_only_measures_calls_sorted_mass_profile():
    # every view of the distribution of |f| reads measures._tie_groups: a
    # second fold over the sorted profile elsewhere fails here (the re-export
    # in __init__.py is a name, not a call)
    package = Path(bjaudit.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "measures.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and "sorted_mass_profile" in _names_used(node.func)
    ]
    assert found == []


def _builds_block(node):
    """A call of _Block, or of anything reached through it (_Block._make)."""
    return isinstance(node, ast.Call) and any(
        "_Block" in _names_used(part) for part in ast.walk(node.func)
    )


def test_only_random_atoms_builds_screen_blocks():
    # the block screen reads random_atoms' decoded draws and nothing else: a
    # _Block built anywhere outside audit._RandomAtoms (a packer of other
    # pairs) fails here
    package = Path(bjaudit.__file__).resolve().parent
    found, inside = [], 0
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            calls = [node.lineno for node in ast.walk(top) if _builds_block(node)]
            if path.name == "audit.py" and getattr(top, "name", None) == "_RandomAtoms":
                inside += len(calls)
            else:
                found += [f"{path.name}:{lineno}" for lineno in calls]
    assert inside > 0
    assert found == []


def test_runtime_needs_no_scipy():
    # numpy is the only runtime dependency: no module imports scipy, at the
    # top or inside a function, and the package metadata does not ask for it
    package = Path(bjaudit.__file__).resolve().parent
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        for module, lineno in _imported_modules(path)
        if module.split(".")[0] == "scipy"
    ]
    assert found == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in project["dependencies"]]
    assert "scipy" not in [name.lower() for name in names]


def test_no_test_module_defines_a_name_twice():
    # a second top-level def of the same name shadows the first, which then
    # never runs
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        seen = set()
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
                seen.add(node.name)
    assert found == []


def test_every_traced_layer_resolves():
    # the benchmark's tracer patches each (module, attribute) of its LAYERS
    # by name, so a deleted or renamed one would break `bench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attribute, *_ in tracing.LAYERS:
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attribute}")
    assert tracing.LAYERS
    assert missing == []


def test_every_exported_name_resolves():
    # a deletion that leaves its name in an __all__ fails here, not at the
    # first `from bjaudit.<module> import *`
    package = Path(bjaudit.__file__).resolve().parent
    missing, exported = [], 0
    for path in sorted(package.glob("*.py")):
        name = "bjaudit" if path.stem == "__init__" else f"bjaudit.{path.stem}"
        module = importlib.import_module(name)
        for attribute in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, attribute):
                missing.append(f"{name}.{attribute}")
    assert exported
    assert missing == []
