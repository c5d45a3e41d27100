"""The README's Library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The ```python block of the README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    namespace: dict = {}
    exec(compile(library_block(), f"{README.name} (Library)", "exec"), namespace)
    result = namespace["result"]
    # The unit triangle a-b-c, joined physically by the path a-b-c.
    assert result.nodes == frozenset({0, 1, 2})
    assert result.connector_nodes == frozenset()
    assert result.conceptual_density == result.core_density == 2.0
