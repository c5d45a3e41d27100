"""The runtime has no dependency: every module of the package imports only
the package itself and the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dualdense"


def absolute_imports(path: Path) -> set[str]:
    """Modules named by the absolute imports of a source file, function-local
    imports included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_runtime_imports_only_the_standard_library():
    allowed = {"dualdense", "__future__", *sys.stdlib_module_names}
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    outside = {path.name: sorted(name for name in absolute_imports(path)
                                 if name.split(".")[0] not in allowed)
               for path in sources}
    assert {name: mods for name, mods in outside.items() if mods} == {}


def test_local_imports_are_seen(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from . import a\nimport os.path\ndef f():\n"
                      "    from xml.sax import saxutils\n    import numpy as np\n")
    assert absolute_imports(source) == {"os.path", "xml.sax", "numpy"}
