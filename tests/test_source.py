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


def _engine_closure(*entries):
    """The package modules that entries import, directly or through the
    modules they import (`from .x import ...` and `from . import x`,
    anywhere in a module, the lazy imports inside functions too), as
    name -> syntax tree; `from . import __version__` imports __init__."""
    trees, todo = {}, list(entries)
    while todo:
        name = todo.pop()
        if name in trees:
            continue
        trees[name] = tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    todo.append(node.module)
                else:
                    todo += [alias.name if (PACKAGE / f"{alias.name}.py")
                             .exists() else "__init__" for alias in node.names]
    return trees


def _tracer_fqf_methods():
    """perfbench/tracer.py's FQF_METHODS, read from its syntax tree (the
    tracer patches these fqf methods by name)."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    value = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and any(
                     getattr(t, "id", None) == "FQF_METHODS"
                     for t in node.targets))
    return {f"{cls}.{method}"
            for cls, methods in ast.literal_eval(value).items()
            for method in methods}


def test_every_package_module_is_one_the_cli_or_the_oracle_imports():
    # Code that only the tests run lives under tests/, not in the package:
    # every module of src/realstrata is imported, directly or through
    # another, by the CLI or the oracle.
    stems = {path.stem for path in PACKAGE.glob("*.py")}
    assert stems == set(_engine_closure("cli", "oracle"))


def test_every_function_on_the_cli_path_is_reachable():
    # Every function, class and method of a module that the CLI or the
    # oracle imports is reached from what runs: cli.main, each command
    # build_parser binds with set_defaults(func=...), every public oracle
    # function, each name a demo imports or calls (the documented library
    # surface: u_block, v_block, eval_q, ...), the fqf methods the
    # benchmark's tracer patches by name, and every module-level statement
    # that is not a def or an import.
    # A name read reaches every definition of that bare name (an
    # over-approximation); a reached class reaches its dunders and
    # class-level statements, and a reached method reaches its class,
    # since it runs on an instance.  What only the tests call fails here.
    trees = _engine_closure("cli", "oracle")
    defs = {}       # qualified name -> (bare name, class or None)
    reads = {}      # qualified name -> the qualified names it reaches
    roots = {"main"} | _tracer_fqf_methods()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs[node.name] = (node.name, None)
                methods = [sub for sub in node.body
                           if isinstance(sub, ast.FunctionDef)]
                for sub in methods:
                    qual = f"{node.name}.{sub.name}"
                    defs[qual] = (sub.name, node.name)
                    reads[qual] = _read(sub) | {node.name}
                reads[node.name] = set().union(
                    *map(_read, node.decorator_list + node.bases),
                    *(_read(sub) for sub in node.body if sub not in methods),
                    (f"{node.name}.{sub.name}" for sub in methods
                     if sub.name.startswith("__")
                     and sub.name.endswith("__")))
            elif isinstance(node, ast.FunctionDef):
                defs[node.name] = (node.name, None)
                reads[node.name] = _read(node)
                if module == "oracle" and not node.name.startswith("_"):
                    roots.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _read(node)
    parser = next(node for node in trees["cli"].body
                  if getattr(node, "name", None) == "build_parser")
    roots |= {kw.value.id for call in _calls(parser, "set_defaults")
              for kw in call.keywords if kw.arg == "func"}
    for path in sorted((ROOT / "demos").glob("*.py")):
        roots |= _read(ast.parse(path.read_text()))
    # A bare name stands for every definition of it; a qualified name (a
    # class-to-method edge, a tracer root) for itself.
    named = {}
    for qual, (bare, _) in defs.items():
        named.setdefault(bare, set()).add(qual)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        for qual in named.get(name, {name} & defs.keys()) - reached:
            reached.add(qual)
            todo += reads[qual]
    unreached = sorted(qual for qual, (_, owner) in defs.items()
                       if qual not in reached and owner in reached | {None})
    assert unreached == []


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


def test_the_oracle_builds_no_glued_form_of_its_own():
    # The oracle assembles the scaled Gram of form (+) [1/a2] itself
    # (_glued_gram), and theta = kappa (+) n in it, and takes a witness phi
    # as a bare integer matrix: it names none of the engine's form
    # constructors, nor its glue vector, the automorphism class it once
    # had, or its isometry and involution checks.
    builders = {"ambient_with_a_block", "cyclic_form", "direct_sum",
                "direct_sum_all", "theta_vector", "DiscAutomorphism",
                "checked_involution", "_check_isometry", "_is_inverse"}
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    assert _read(tree) & builders == set()


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


def _calls(node, name):
    """The calls in node of a function or method named name, called by
    its name or as an attribute."""
    return [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
            and name in (getattr(sub.func, "id", None),
                         getattr(sub.func, "attr", None))]


def test_only_fqf_and_the_oracle_walk_every_element_of_a_form():
    # A search by order and q reads FiniteQuadraticForm.elements_of_order;
    # walks of every element stay in fqf and in the oracle, which shares no
    # fast-path code.  form.subgroup(...).iter_elements() lists a subgroup,
    # not the form, and is not counted.
    def of_a_form(call):
        owner = call.func.value
        return not (isinstance(owner, ast.Call)
                    and getattr(owner.func, "attr", None) == "subgroup")

    walkers = {path.name for path in PACKAGE.glob("*.py")
               if any(of_a_form(call) for call in _calls(
                   ast.parse(path.read_text()), "iter_elements"))}
    assert walkers <= {"fqf.py", "oracle.py"}


def test_the_detector_reads_the_symmetry_table_to_search_and_key_only():
    # The kernel candidates come from the form's own listing; the
    # detector builds G's table before any decision (_search) and reads
    # its orbit minima (_orbit_key), and calls it nowhere else.
    tree = ast.parse((PACKAGE / "detector.py").read_text())
    callers = {node.name: len(_calls(node, "_symmetry_table"))
               for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {name for name, n in callers.items() if n} == {"_search",
                                                          "_orbit_key"}
    assert sum(callers.values()) == len(_calls(tree, "_symmetry_table"))
