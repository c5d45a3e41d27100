"""The runtime has no dependency: every module of the package imports only
the package itself and the standard library.  Importing the CLI loads none
of the modules that ``dcs`` never runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualdense

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "dualdense"
# Heavy standard modules (``dataclasses`` alone imports ``inspect``, ``ast``,
# ``dis`` and ``tokenize``) and the package modules only ``oracle`` and
# ``gen`` run.
NOT_AT_START = ("dataclasses", "inspect", "typing", "dualdense.oracle", "dualdense.synth")


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


def loaded_after(imports: str, names) -> str:
    """Which of ``names`` a fresh ``python -S`` has loaded after ``imports``.
    ``-S`` skips ``site``, whose path hooks may import ``typing`` themselves."""
    code = f"import sys, {imports}; print(sorted(set({tuple(names)!r}) & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return run.stdout


def test_cli_start_loads_nothing_dcs_does_not_run():
    assert loaded_after("dualdense.cli", NOT_AT_START) == "[]\n"


def test_oracle_and_gen_load_no_dataclasses():
    assert loaded_after("dualdense.oracle, dualdense.synth", ("dataclasses",)) == "[]\n"


def test_lazy_exports():
    namespace: dict = {}
    exec("from dualdense import *", namespace)
    assert set(dualdense.__all__) <= namespace.keys()
    assert dualdense.brute_force_dcs is dualdense.oracle.brute_force_dcs
    assert dualdense.generate_planted is dualdense.synth.generate_planted
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dualdense.no_such_name
