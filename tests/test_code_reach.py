"""Every top-level function and class in the package has a caller outside tests.

Code that only a test reaches is code the program does not need: the test
should check the path the program runs instead. A definition counts as
reached when some module in src/ or perfbench/ names it, as a bare name, an
attribute or an imported name. Tests do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hexwin"


def top_level_definitions():
    """(module file name, name) of each top-level def and class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.name, node.name


def names_used_outside_tests():
    used = set()
    for path in sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("perfbench/**/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_definition_is_reached_outside_tests():
    used = names_used_outside_tests()
    unreached = [f"{module}:{name}" for module, name in top_level_definitions()
                 if name not in used]
    assert not unreached, f"only tests reach {', '.join(unreached)}"
