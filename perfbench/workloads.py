"""Workload definitions and the seeded instance generator.

The generator is the benchmark's own, so that a change to the program
(``dualdense.synth`` included) never changes the inputs it is measured on.
Instances follow the planted model of ``dualdense.synth``: a planted set
whose conceptual edges form a weight-1.0 clique, background conceptual
weights in (0, 0.1], and a physical graph kept connected by a spanning
tree.  Unlike synth, the planted set is also a physical clique (or, for a
detour workload, has no internal physical edge at all), so the densest
connected subset is the whole planted set on every seed.  Edge counts are
exact, so every seed of a workload has the same size.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

WEIGHT_CAP = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    conceptual_edges: int
    physical_edges: int
    planted_size: int
    # True: the planted set has no internal physical edge; each member hangs
    # off one random non-member, so it is connected only through detours.
    detour: bool
    # CLI flags, and the option values the result must echo.
    flags: tuple[str, ...]
    delta: float
    gap_mode: str
    connectivity: str


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="scale-d1",
        nodes=10_000, conceptual_edges=50_000, physical_edges=50_000,
        planted_size=8, detour=False,
        flags=("--delta", "1"),
        delta=1, gap_mode="per-hop", connectivity="strict"),
    Workload(
        name="gap-d4",
        nodes=2_000, conceptual_edges=10_000, physical_edges=14_000,
        planted_size=40, detour=True,
        flags=(),
        delta=4, gap_mode="per-hop", connectivity="strict"),
    Workload(
        name="reach-inf",
        nodes=2_000, conceptual_edges=10_000, physical_edges=10_000,
        planted_size=8, detour=False,
        flags=("--delta", "inf", "--gap-mode", "conceptual",
               "--connectivity", "relaxed"),
        delta=math.inf, gap_mode="conceptual", connectivity="relaxed"),
)}


def _tree(rng: random.Random, nodes: list[int]) -> set[tuple[int, int]]:
    order = list(nodes)
    rng.shuffle(order)
    edges = set()
    for i in range(1, len(order)):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((a, b) if a < b else (b, a))
    return edges


def _fill(rng: random.Random, n: int, edges: set[tuple[int, int]], target: int,
          forbidden: set[tuple[int, int]]) -> None:
    while len(edges) < target:
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key not in forbidden:
            edges.add(key)


def generate(w: Workload, seed: int):
    """Return (conceptual [(a, b, weight)], physical [(a, b)], planted)
    over node indices 0..n-1, all sorted."""
    rng = random.Random(f"{w.name}:{seed}")
    n, k = w.nodes, w.planted_size
    planted = sorted(rng.sample(range(n), k))
    clique = {(planted[i], planted[j]) for i in range(k) for j in range(i + 1, k)}

    if w.detour:
        pset = set(planted)
        others = [v for v in range(n) if v not in pset]
        phys = _tree(rng, others)
        for v in planted:
            u = rng.choice(others)
            phys.add((u, v) if u < v else (v, u))
        forbidden = clique
    else:
        phys = clique | _tree(rng, list(range(n)))
        forbidden = set()
    _fill(rng, n, phys, w.physical_edges, forbidden)

    background: set[tuple[int, int]] = set()
    _fill(rng, n, background, w.conceptual_edges - len(clique), clique)
    conc = [(a, b, 1.0) for a, b in sorted(clique)]
    conc += [(a, b, WEIGHT_CAP * (1.0 - rng.random())) for a, b in sorted(background)]
    conc.sort()
    return conc, sorted(phys), planted


def write_instance(w: Workload, seed: int, out: Path) -> dict:
    """Write conceptual.tsv, physical.tsv, correspondence.tsv and
    instance.json under ``out``; return the instance description.

    Edge lists cannot name isolated nodes, so a correspondence row is
    written only for a node present in both edge lists; the others are
    counted as ``dropped_pairs``.
    """
    t0 = time.perf_counter()
    conc, phys, planted = generate(w, seed)
    in_conc = {v for a, b, _ in conc for v in (a, b)}
    in_phys = {v for a, b in phys for v in (a, b)}
    with open(out / "conceptual.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"c{a}\tc{b}\t{x!r}\n" for a, b, x in conc)
    with open(out / "physical.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"p{a}\tp{b}\n" for a, b in phys)
    kept = [v for v in range(w.nodes) if v in in_conc and v in in_phys]
    with open(out / "correspondence.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"c{v}\tp{v}\n" for v in kept)
    meta = {
        "workload": w.name,
        "seed": seed,
        "nodes": w.nodes,
        "conceptual_edges": len(conc),
        "physical_edges": len(phys),
        "pairs": len(kept),
        "dropped_pairs": w.nodes - len(kept),
        "planted": [f"c{v}" for v in planted],
        "gen_s": time.perf_counter() - t0,
    }
    (out / "instance.json").write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
    return meta
