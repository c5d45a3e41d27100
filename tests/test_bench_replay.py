"""A fast guard on the library surface the benchmark replays.

``perfbench/worker.py`` times the library path (``task_time``) and replays
``extract_dcs`` layer by layer through the library's own names
(``task_trace``), so renaming or removing any name it reads breaks the
benchmark.  This runs both tasks on one seed of each workload, with a
probe state file that never advances, and requires the same output bytes
and a result the benchmark's independent checker accepts.  Nothing under
``perfbench/`` is written to.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import probe  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, write_instance  # noqa: E402

SEED = 301


@pytest.mark.parametrize("name", ["scale-d1", "gap-d4", "reach-inf"])
def test_traced_replay_matches_timed_run(name, tmp_path):
    w = WORKLOADS[name]
    write_instance(w, SEED, tmp_path)
    (tmp_path / "probe.state").write_bytes(probe.STATE.pack(0.0, 0.0))
    timed = worker.task_time(w, tmp_path)
    traced = worker.task_trace(w, tmp_path, "t")
    assert traced["sha256"] == timed["sha256"]
    check = verify.check(w, tmp_path, "traced-t.json")
    assert check["ok"], check["problems"]
