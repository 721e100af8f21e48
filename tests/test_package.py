"""Every function, class and method in the package has a caller in the package.

A name only tests call belongs in ``tests/helpers.py``.  Re-exports in
``__init__.py`` are not callers, and dunder methods, which the language
calls, are exempt.
"""

import ast
import pathlib

import anharmonic

#: Names kept without a package caller, each with its reason.
ALLOWED_UNUSED = {
    "kerr_hamiltonian",  # perfbench/tracing.py wraps it by name; the tests derive from it
}


def test_every_definition_has_a_package_caller():
    # a method or property is called only as ``.name``: a bare name of the
    # same spelling, such as a parameter, does not call it
    definitions, references = [], []
    for path in pathlib.Path(anharmonic.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {
            item
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append(
                    (path.name, node.name, node.lineno, node.end_lineno, node in methods)
                )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references.append((path.name, node.id, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                references.append((path.name, node.attr, node.lineno, True))
    unused = {
        name
        for module, name, first, last, is_method in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and not any(
            ref == name
            and (attribute or not is_method)
            and not (ref_module == module and first <= line <= last)
            for ref_module, ref, line, attribute in references
        )
    }
    assert unused == ALLOWED_UNUSED
