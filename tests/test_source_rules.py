"""Rules on the package source that no other test can see.

- No `assert` statement: `python -O` strips them, and invariant checks
  must hold there too.
- No import outside the standard library and `taxarch` itself: the
  package has no runtime dependencies.
- No use of `gc` outside `cli.py`: the collector's state is global to
  the process, so only the command line, which owns the process, may
  pause it, and only its process entry, `run`, freezes what survives a
  command before shutdown; a library caller of `parse_bundle` or of
  `main` never has it changed.
- `is_valid_jurisdiction` is used only by `model.py`, where
  `validate_snapshot` judges the codes of every snapshot however it was
  read, and by `generate.py`, which checks the generator's own
  parameters: a second judge of input codes would word its own faults.
- No use of `object.__new__`: a record is built only through its
  constructor, so the one place that sets its fields is the one place to
  read.
- No `except` clause in `model.py` names `TypeError` but the column
  rule's, `_column`, whose join of a str column is that column's type
  test and which raises `InvalidFieldError` in its place: no code there
  survives a value of another type.
- Every submodule is the package attribute of its name, and every name
  in `__all__` resolves: an exported function named as a submodule
  would hide the module from `import taxarch.<name> as m`.
- No module imports a name from the package root but `__version__`:
  the root binds each public name on first use by importing the module
  that defines it, so a name taken from there would load that module
  unseen, and could import a module half-initialised in a cycle.
- An import loads only the modules it needs: `import taxarch` loads no
  submodule, and each submodule loads only what it imports itself.
- No source names `exec`: the package generates no code of its own,
  and every record is built by the constructor that `dataclasses` gives
  it or, for `LocationEvidence`, by the one hand-written constructor.
- Every class declared with `dataclass(...)` has its own docstring:
  `dataclasses` builds the missing one from `inspect.signature` of the
  class, a cost every import of the package pays.
- `model.py` defines the column rule, `_column` and `_encodable`, and
  only the constructors (a `__post_init__` or `__init__` there) use it:
  the type of every value a snapshot holds is judged in one place, when
  it is built, and nowhere else.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import taxarch

PACKAGE = Path(taxarch.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(taxarch.__path__))


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "ingest.py", "model.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.relative_to(PACKAGE)}: assert on line(s) {lines}"


def _imported_packages(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_imports_only_stdlib_and_taxarch(path):
    allowed = sys.stdlib_module_names | {"taxarch"}
    outside = [(line, name) for line, name in _imported_packages(_tree(path)) if name not in allowed]
    assert outside == [], f"{path.relative_to(PACKAGE)}: imports outside the standard library {outside}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_only_the_cli_touches_the_cyclic_collector(path):
    tree = _tree(path)
    uses = [line for line, name in _imported_packages(tree) if name == "gc"]
    uses += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "gc"]
    assert uses == [], f"{path.relative_to(PACKAGE)}: uses gc on line(s) {uses}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in ("model.py", "generate.py")], ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_only_validate_and_the_generator_judge_jurisdiction_codes(path):
    tree = _tree(path)
    names = [(node.lineno, node.id) for node in ast.walk(tree) if isinstance(node, ast.Name)]
    names += [(node.lineno, node.attr) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    names += [(node.lineno, node.name) for node in ast.walk(tree) if isinstance(node, ast.alias)]
    uses = [line for line, name in names if name == "is_valid_jurisdiction"]
    assert uses == [], f"{path.relative_to(PACKAGE)}: uses is_valid_jurisdiction on line(s) {uses}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_records_are_built_only_through_their_constructors(path):
    calls = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute)
        and node.attr == "__new__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ]
    assert calls == [], f"{path.relative_to(PACKAGE)}: object.__new__ on line(s) {calls}"


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_is_the_package_attribute_of_its_name(name):
    module = importlib.import_module(f"taxarch.{name}")
    assert getattr(taxarch, name) is module


def test_every_exported_name_resolves():
    assert [name for name in taxarch.__all__ if not hasattr(taxarch, name)] == []
    assert set(taxarch.__all__) <= set(dir(taxarch)) and not hasattr(taxarch, "no_such_module")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_module_imports_a_name_from_the_package_root_but_its_version(path):
    names = [
        (node.lineno, alias.name)
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, None), (0, "taxarch"))
        for alias in node.names
    ]
    outside = [(line, name) for line, name in names if name != "__version__"]
    assert outside == [], f"{path.relative_to(PACKAGE)}: imports from the package root {outside}"


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import taxarch", []),
        ("import taxarch.ingest", ["ingest", "jsontext", "model"]),
        ("from taxarch import parse_bundle", ["ingest", "jsontext", "model"]),
        ("import taxarch; taxarch.jsontext", ["jsontext"]),
        ("from taxarch import *", ["classify", "diff", "generate", "ingest", "jsontext", "model", "resolve", "views"]),
        (
            "import taxarch.cli",
            ["classify", "cli", "diff", "generate", "ingest", "jsontext", "model", "resolve", "views"],
        ),
    ],
)
def test_an_import_in_a_fresh_interpreter_loads_only_the_modules_it_needs(statement, loaded):
    code = f"import sys; {statement}; print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'taxarch'))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.split() == ["taxarch", *(f"taxarch.{name}" for name in loaded)]


def _scopes(tree: ast.AST) -> dict[int, str]:
    """The name of the innermost function or class around each node, by the node's id()."""
    return {
        id(node): scope.name
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(scope)
    }  # an outer scope's entries are overwritten by its inner scopes', as ast.walk visits outer scopes first


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_source_names_exec(path):
    uses = [
        node.lineno
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Name) and node.id == "exec")
        or (isinstance(node, ast.Attribute) and node.attr == "exec")
    ]
    assert uses == [], f"{path.relative_to(PACKAGE)}: names exec on line(s) {uses}"


def test_the_model_has_no_except_clause_naming_type_error():
    tree = _tree(PACKAGE / "model.py")
    scopes = _scopes(tree)
    clauses = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    names = [(scopes.get(id(n)), n.lineno) for n in clauses if n.type and "TypeError" in ast.unparse(n.type)]
    lines = [line for scope, line in names if scope != "_column"]
    assert lines == [], f"model.py: except TypeError on line(s) {lines}"
    assert [scope for scope, _ in names] == ["_column"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_dataclass_has_its_own_docstring(path):
    def declared_as_dataclass(node: ast.ClassDef) -> bool:
        names = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        return any(isinstance(n, ast.Name) and n.id == "dataclass" for n in names)

    bare = [
        node.name
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef) and declared_as_dataclass(node) and ast.get_docstring(node) is None
    ]
    assert bare == [], f"{path.relative_to(PACKAGE)}: no docstring on {bare}"


COLUMN_RULE = ("_column", "_encodable")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_only_the_constructors_use_the_column_rule(path):
    tree = _tree(path)
    scopes = _scopes(tree)
    uses = [
        (node.lineno, scopes.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and getattr(node, "id", getattr(node, "attr", getattr(node, "name", None))) in COLUMN_RULE
    ]
    outside = [line for line, scope in uses if path.name != "model.py" or scope not in ("__post_init__", "__init__")]
    assert outside == [], f"{path.relative_to(PACKAGE)}: column rule outside a constructor on line(s) {outside}"


def test_the_model_defines_the_column_rule_and_its_constructors_use_it():
    # The rule above would pass vacuously if the column rule were renamed.
    tree = _tree(PACKAGE / "model.py")
    scopes = _scopes(tree)
    assert set(COLUMN_RULE) <= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    users = {scopes.get(id(node)) for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id in COLUMN_RULE}
    classes = {
        scope.name: {node.name for node in scope.body if isinstance(node, ast.FunctionDef)}
        for scope in ast.walk(tree)
        if isinstance(scope, ast.ClassDef)
    }
    assert users == {"__post_init__", "__init__"}
    assert "__post_init__" in classes["Table"] and "__init__" in classes["LocationEvidence"]
