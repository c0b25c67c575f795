"""Checks on the source itself: its syntax trees, and what importing the
package loads."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "realstrata"


def _defined(tree):
    """(name, statement) for every name a module-level def, class or
    assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def _read(node):
    """The names a statement reads: names loaded, attributes, imported
    names, and string constants (monkeypatch.setattr and getattr name an
    attribute by a string)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def test_every_module_level_name_is_read_somewhere():
    # A module-level name in the package that nothing in src/, tests/ or
    # demos/ reads outside its own definition is dead code.
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    reads = {path: [(node, _read(node)) for node in tree.body]
             for path, tree in trees.items()}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, definition in _defined(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in names
                       for other, stmts in reads.items()
                       for node, names in stmts
                       if other != path or node is not definition):
                unread.append(f"{path.name}: {name}")
    assert unread == []


def test_every_module_level_import_is_read_in_its_module():
    # An import that nothing in its own module reads (as a loaded name, or
    # as a string in __all__) is dead and costs import time.
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {sub.id for sub in ast.walk(tree)
                 if isinstance(sub, ast.Name)
                 and not isinstance(sub.ctx, ast.Store)}
        for node in tree.body:
            if (isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)):
                names.update(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in names:
                        unread.append(f"{path.name}: {bound}")
    assert unread == []


def test_the_oracle_reads_no_engine_integer_form_data():
    # The oracle evaluates q and b from form.q and form.b alone: its q*d
    # and b*d come from its own scaled Gram and walk, never from the
    # engine's integer values or evaluators, named directly or as strings.
    engine = {"Qn", "Bn", "_gram", "eval_qn", "eval_bn", "_pairing_row"}
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    assert _read(tree) & engine == set()


def test_the_package_has_no_bare_assert():
    # python -O strips assert statements, so a check the package relies on
    # is an explicit raise.
    bare = [f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)]
    assert bare == []


def _stdout_of(script):
    """What a fresh interpreter prints running script with src/ on its
    path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_dataclasses_inspect_or_datetime():
    # Each CLI call pays for the import: these modules (and what they pull
    # in: dis, tokenize, ast) cost about a quarter of it.
    script = ("import sys; import realstrata, realstrata.cli, "
              "realstrata.oracle; print(sorted(m for m in ('dataclasses', "
              "'inspect', 'datetime') if m in sys.modules))")
    assert _stdout_of(script) == "[]"


def test_package_import_loads_no_module():
    # The package holds its version and nothing else: every caller imports
    # from the modules, so no re-export layer loads them all.
    script = ("import sys; import realstrata; print(sorted(m for m in "
              "sys.modules if m.startswith('realstrata.')))")
    assert _stdout_of(script) == "[]"


def test_the_version_is_defined_once():
    # pyproject.toml reads the version from realstrata.__version__, which
    # the report cache key also reads, so a bump in one place bumps both.
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == \
        {"attr": "realstrata.__version__"}
    # setuptools reads the attribute statically: one literal assignment.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    versions = [node for name, node in _defined(tree) if name == "__version__"]
    assert len(versions) == 1
    assert isinstance(versions[0].value, ast.Constant)


def _writes_cache_entry(node, key):
    """Whether node stores into some x._cache[key], or passes key to a
    method of some x._cache (setdefault, update, ...)."""
    def is_cache(sub):
        return isinstance(sub, ast.Attribute) and sub.attr == "_cache"

    if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
            and is_cache(node.value)):
        return (isinstance(node.slice, ast.Constant)
                and node.slice.value == key)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and is_cache(node.func.value)):
        return any(isinstance(sub, ast.Constant) and sub.value == key
                   for arg in node.args + [k.value for k in node.keywords]
                   for sub in ast.walk(arg))
    return False


def test_the_symmetry_group_is_one_table_in_lattices():
    # The symmetry group G of a polarized form is one checked table,
    # lattices._symmetry_table: the detector reads its orbits from it and
    # names no _component* helper of lattices to build them again, and no
    # other module writes the table's cache entry.
    detector_names = {name for name in _read(ast.parse(
        (PACKAGE / "detector.py").read_text())) if name.startswith("_component")}
    assert detector_names == set()
    writers = sorted(path.name for path in PACKAGE.glob("*.py")
                     if any(_writes_cache_entry(node, "symmetry")
                            for node in ast.walk(ast.parse(path.read_text()))))
    assert writers == ["lattices.py"]
