"""Every top-level function in the package is called by the package itself:
a function that only the tests call is either registered as a ``verify``
record or deleted, with its assertions moved onto the surviving API."""

import ast
from pathlib import Path

import quartint

PACKAGE = Path(quartint.__file__).parent

# Inequalities behind the proofs of T(m) < 1 and T(m) <= 27/28, each waiting
# to become a ``verify`` record (ROADMAP item 1); until then only the tests
# call them.
AWAITING_REGISTRATION = {
    "companion_ratio_bound_violations",
    "envelope_bound_check",
    "pochhammer_ratio_bound_check",
}


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


def test_only_the_bounds_awaiting_registration_are_left_uncalled():
    assert functions_the_package_does_not_call() == AWAITING_REGISTRATION
