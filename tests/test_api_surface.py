"""Every top-level function in the package is called by the package itself:
a function that only the tests call is either registered as a ``verify``
record or deleted, with its assertions moved onto the surviving API.  Every
exception class the package defines is caught by name somewhere in it: one
that no ``except`` names is told apart from its base by nothing but its
name, so it is a plain instance of that base instead.  The package exports
exactly the names that the README's Library section uses."""

import ast
import importlib
import re
import types
from pathlib import Path

import quartint

PACKAGE = Path(quartint.__file__).parent
README = Path(__file__).parents[1] / "README.md"


def _names_in(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)  # the suites look predicates up by name
    return names


def functions_the_package_does_not_call() -> set[str]:
    """Top-level functions named nowhere in the package but in their own
    ``def`` and in ``__init__.py``."""
    defined, named = set(), set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if own is not None:
                defined.add(own)
            if path.name != "__init__.py":
                named |= _names_in(stmt) - {own}
    return defined - named


def test_every_function_is_called_by_the_package():
    assert functions_the_package_does_not_call() == set()


def exception_classes_the_package_does_not_catch() -> set[str]:
    """Exception classes defined at the top level of a module of the package
    that no ``except`` clause of the package names."""
    defined, caught = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = importlib.import_module(f"quartint.{path.stem}") if path.stem != "__init__" else quartint
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and issubclass(getattr(module, stmt.name), BaseException):
                defined.add(stmt.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _names_in(node.type)
    return defined - caught


def test_every_exception_class_is_caught_by_name():
    assert exception_classes_the_package_does_not_catch() == set()


def test_every_export_is_in_the_readme_library():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"\bq\.(\w+)", section))
    # the submodules are attributes of the package once imported, not exports
    exports = {k for k, v in vars(quartint).items() if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exports == documented
