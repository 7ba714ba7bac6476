import ast
from pathlib import Path

import sdmimo

SOURCES = sorted(Path(sdmimo.__file__).parent.glob("*.py"))


def _private_imports(path: Path):
    """``(line, module, name)`` for each private name that a relative
    ``from .module import ...`` in `path` takes; dunders are public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    found.append((node.lineno, node.module, name))
    return found


def test_no_module_imports_another_modules_private_name():
    # a private name is owned by the module that defines it: a computation
    # another module needs lives there or is made public
    assert {p.name for p in SOURCES} >= {"__init__.py", "precoding.py", "qam.py"}
    offenders = {p.name: _private_imports(p) for p in SOURCES}
    assert {name: found for name, found in offenders.items() if found} == {}
