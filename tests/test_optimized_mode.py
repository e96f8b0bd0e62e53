"""The package runs the same under ``python -O``.

-O removes ``assert`` statements and the code under ``if __debug__:``, and
sets ``sys.flags.optimize``; nothing else changes.  So no module of the
package may hold any of the three: a contract stated by one would vanish
under -O.  The check reads the source, so it finds such a line whether or
not a test makes it fail.
"""

import ast
from pathlib import Path

import smoothgate

PACKAGE = Path(smoothgate.__file__).parent


def _debug_only(tree: ast.AST):
    """(line, what) for each spot of tree that -O removes or that reads -O."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node.lineno, "__debug__"
        elif (isinstance(node, ast.Attribute) and node.attr == "flags"
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            yield node.lineno, "sys.flags read"
        elif (isinstance(node, ast.ImportFrom) and node.module == "sys"
              and any(alias.name == "flags" for alias in node.names)):
            yield node.lineno, "sys.flags import"


def test_no_package_module_behaves_differently_under_python_O():
    sample = ("import sys\nfrom sys import flags\nassert x\n"
              "if __debug__:\n    pass\nlevel = sys.flags.optimize\n")
    assert sorted(_debug_only(ast.parse(sample))) == [
        (2, "sys.flags import"), (3, "assert statement"), (4, "__debug__"),
        (6, "sys.flags read")]
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    found = [f"{path.relative_to(PACKAGE.parent)}:{line}: {what}"
             for path in paths
             for line, what in _debug_only(ast.parse(path.read_bytes(), str(path)))]
    assert found == []
