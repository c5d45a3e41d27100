"""Independent check of a `dcs` result against its input files.

Nothing here imports dualdense: the input files are parsed, and density
and connectivity recomputed, by this module's own code.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path

from workloads import Workload

REL_TOL = 1e-9


def _read_rows(path: Path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                yield line.split()


def _density(conc: dict[str, dict[str, float]], members: set[str]) -> float:
    """2 * W(S) / |S| over the conceptual edges inside ``members``."""
    return math.fsum(x for a in members for b, x in conc.get(a, {}).items()
                     if b in members) / len(members)


def _reach(phys: dict[str, set[str]], start: str, allowed: set[str] | None,
           cap: float) -> set[str]:
    """Nodes within ``cap`` hops of ``start``, walking only ``allowed`` nodes
    (all nodes when None)."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        if dist[x] >= cap:
            continue
        for y in phys.get(x, ()):
            if y not in dist and (allowed is None or y in allowed):
                dist[y] = dist[x] + 1
                queue.append(y)
    return set(dist)


def _delta_connected(phys: dict[str, set[str]], members: set[str], delta: float) -> bool:
    """Members joined whenever their hop distance in the full physical
    graph is at most delta form one connected block."""
    order = sorted(members)
    seen = {order[0]}
    queue = deque([order[0]])
    while queue:
        x = queue.popleft()
        for y in _reach(phys, x, None, delta) & members:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen == members


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check(w: Workload, d: Path, output_name: str) -> dict:
    conc: dict[str, dict[str, float]] = {}
    for a, b, x in _read_rows(d / "conceptual.tsv"):
        weight = float(x)
        for u, v in ((a, b), (b, a)):
            row = conc.setdefault(u, {})
            row[v] = max(row.get(v, 0.0), weight)
    phys: dict[str, set[str]] = {}
    for a, b in _read_rows(d / "physical.tsv"):
        phys.setdefault(a, set()).add(b)
        phys.setdefault(b, set()).add(a)
    corr = {c: p for c, p in _read_rows(d / "correspondence.tsv")}
    planted = set(json.loads((d / "instance.json").read_text(encoding="utf-8"))["planted"])
    doc = json.loads((d / output_name).read_text(encoding="utf-8"))

    problems = []
    expected = {"delta": "inf" if w.delta == math.inf else w.delta,
                "gap_mode": w.gap_mode, "connectivity": w.connectivity, "repair": True}
    for key, value in expected.items():
        if doc.get(key) != value:
            problems.append(f"{key} echoed as {doc.get(key)!r}, expected {value!r}")
    core = [tuple(x) for x in doc["nodes"]]
    connectors = [tuple(x) for x in doc["connector_nodes"]]
    for c, p in core + connectors:
        if corr.get(c) != p:
            problems.append(f"({c}, {p}) is not a correspondence pair")
    core_c = {c for c, _ in core}
    all_c = core_c | {c for c, _ in connectors}
    if not core_c or len(core_c) != len(core) or core_c & {c for c, _ in connectors}:
        problems.append("core is empty, repeats a node or overlaps the connectors")
        return {"ok": False, "problems": problems, "density_ratio": 0.0}
    if doc["node_count"] != len(core):
        problems.append(f"node_count {doc['node_count']} != {len(core)}")

    density = _density(conc, all_c)
    if not _close(doc["conceptual_density"], density):
        problems.append(f"conceptual_density {doc['conceptual_density']!r}, recomputed {density!r}")
    core_density = _density(conc, core_c)
    if not _close(doc["core_conceptual_density"], core_density):
        problems.append(f"core_conceptual_density {doc['core_conceptual_density']!r}, "
                        f"recomputed {core_density!r}")

    members_p = {corr[c] for c in all_c if c in corr}
    if w.connectivity == "strict":
        connected = _reach(phys, min(members_p), members_p, math.inf) == members_p
    else:
        connected = not connectors and _delta_connected(phys, members_p, w.delta)
    if not connected or doc["physically_connected"] is not True:
        problems.append(f"{w.connectivity} connectivity does not hold")

    if core_c != planted:
        problems.append(f"core {sorted(core_c)} is not the planted set")

    return {"ok": not problems, "problems": problems,
            "density_ratio": doc["conceptual_density"] / _density(conc, planted)}
