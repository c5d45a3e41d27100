"""Golden outputs: the CLI's stdout, stderr and exit code on four small
instances, compared byte for byte with files committed under
``tests/golden/``.

Each instance directory holds ``conceptual.tsv``, ``physical.tsv`` and
``correspondence.tsv`` (``readme`` is the README example, ``connector``
needs connector nodes, ``irreparable`` cannot be repaired and exits 1, and
``gen`` is a 20-node ``dualdense gen`` instance), plus one ``<case>.out``
per command with its expected stdout.  ``status.json`` maps
``<instance>/<case>`` to the expected ``[exit code, stderr]``.

To regenerate the expected files after an intended output change, run
``python tests/test_golden.py`` with the intended ``dualdense`` first on
``PYTHONPATH``, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dualdense.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INSTANCES = ("readme", "connector", "irreparable", "gen")
DUAL = ("--conceptual", "conceptual.tsv", "--physical", "physical.tsv",
        "--correspondence", "correspondence.tsv")

CASES = {
    "dcs-json": ("dcs", *DUAL),
    "dcs-dot": ("dcs", *DUAL, "--format", "dot"),
    "dcs-no-repair": ("dcs", *DUAL, "--no-repair"),
    "dcs-relaxed": ("dcs", *DUAL, "--connectivity", "relaxed"),
    "dcs-inf-conceptual": ("dcs", *DUAL, "--delta", "inf", "--gap-mode", "conceptual"),
    **{f"align-{fmt}-{delta}-{rule}": ("align", *DUAL, "--format", fmt, "--delta", delta,
                                       "--gap-mode", rule)
       for fmt in ("json", "dot", "graphml")
       for delta in ("2", "inf")
       for rule in ("per-hop", "conceptual")},
    # The searcher's growth rule only shapes finite delta above 2.
    **{f"align-json-{delta}-per-hop": ("align", *DUAL, "--format", "json", "--delta", delta)
       for delta in ("3", "4")},
    "oracle": ("oracle", *DUAL),
    "peel-conceptual": ("peel", "--graph", "conceptual.tsv"),
    "peel-physical": ("peel", "--graph", "physical.tsv", "--unweighted"),
    "stats-conceptual": ("stats", "--graph", "conceptual.tsv"),
    "stats-physical": ("stats", "--graph", "physical.tsv", "--unweighted"),
}


def run_case(instance: str, case: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one case, run inside the instance
    directory so that messages cite relative paths."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN / instance)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(CASES[case]))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _read(path: Path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("instance", INSTANCES)
def test_golden_output(instance, case):
    status = json.loads(_read(GOLDEN / "status.json"))
    code, stdout, stderr = run_case(instance, case)
    assert [code, stderr] == status[f"{instance}/{case}"]
    assert stdout == _read(GOLDEN / instance / f"{case}.out")


def test_output_does_not_depend_on_string_hashing():
    # One process keeps one string-hash seed, so only fresh interpreters
    # with different seeds show output that follows set or dict order.
    src = str(GOLDEN.parent.parent / "src")
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "dualdense", "dcs", *DUAL],
                              cwd=GOLDEN / "gen", env=env, capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].decode("utf-8") == _read(GOLDEN / "gen" / "dcs-json.out")


def regenerate() -> None:
    status = {}
    for instance in INSTANCES:
        for case in sorted(CASES):
            code, stdout, stderr = run_case(instance, case)
            status[f"{instance}/{case}"] = [code, stderr]
            with open(GOLDEN / instance / f"{case}.out", "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(stdout)
    rows = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in status.items()]
    with open(GOLDEN / "status.json", "w", encoding="utf-8", newline="") as fh:
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    regenerate()
