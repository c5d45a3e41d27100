"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Full-scale case-study figures are not reproducible at desk scale, so
acceptance is property-based plus small-instance oracle equivalence, with
pinned tolerances and runtime budgets.
"""

import math
import random
import resource
import time

import pytest

from dualdense import (Connectivity, DcsOptions, GapWeightRule, Graph,
                       brute_force_dcs, density, extract_dcs,
                       generate_planted, peel, verify_physical_connectivity)
from dualdense.align import build_alignment_graph
from dualdense.cli import main
from helpers import (check_peel_order, exact_densest, kind_of, random_dual_network,
                     random_graph, reference_alignment, subset_density)

REL_TOL = 1e-9


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num}] {status}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_c1_approximation_guarantee():
    t0 = time.monotonic()
    equal = 0
    violations = []
    for seed in range(200):
        rng = random.Random(1000 + seed)
        n = rng.randint(4, 14)
        edges = [(u, v, 1.0 - rng.random())
                 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph([f"x{i}" for i in range(n)], edges)
        greedy, _ = peel(g)
        exact = exact_densest(g)
        if greedy.density < 0.5 * exact.density - 1e-12:
            violations.append(seed)
        if abs(greedy.density - exact.density) <= REL_TOL * max(1.0, exact.density):
            equal += 1
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 30.0
    report(1, "approximation guarantee",
           ok, f"{len(violations)} violations, exact on {equal}/200, {elapsed:.1f}s")


def test_c2_oracle_dominance_and_connectivity():
    t0 = time.monotonic()
    dominated = True
    connected = True
    for seed in range(100):
        rng = random.Random(2000 + seed)
        n = rng.randint(2, 12)
        dn = random_dual_network(rng, n)
        delta = (1, 2, 4)[seed % 3]
        result = extract_dcs(dn, DcsOptions(delta=delta))
        oracle = brute_force_dcs(dn)
        if oracle.density < result.conceptual_density - REL_TOL * max(1.0, oracle.density):
            dominated = False
        if not verify_physical_connectivity(dn, result.nodes | result.connector_nodes,
                                            Connectivity.STRICT):
            connected = False
    elapsed = time.monotonic() - t0
    ok = dominated and connected and elapsed < 60.0
    report(2, "oracle dominance and strict connectivity",
           ok, f"dominated={dominated}, connected={connected}, {elapsed:.1f}s")


def test_c3_planted_recovery():
    t0 = time.monotonic()
    pipeline_hits = 0
    oracle_hits = 0
    for seed in range(50):
        inst = generate_planted(30, 6, seed=seed)
        result = extract_dcs(inst.dual, DcsOptions(delta=2, gap_mode=GapWeightRule.PER_HOP))
        if result.nodes == inst.planted and not result.connector_nodes:
            pipeline_hits += 1
        # Planted density 5.0 dominates every other connected subset of any
        # size (background weights <= 0.1), so bounding enumeration at the
        # planted size cannot change the oracle answer.
        oracle = brute_force_dcs(inst.dual, max_nodes=6, node_cap=30)
        if oracle.nodes == inst.planted:
            oracle_hits += 1
    elapsed = time.monotonic() - t0
    ok = pipeline_hits >= 45 and oracle_hits == 50 and elapsed < 120.0
    report(3, "planted recovery",
           ok, f"pipeline {pipeline_hits}/50 (need >=45), oracle {oracle_hits}/50, {elapsed:.1f}s")


def test_c4_match_only_soundness():
    all_connected = True
    for seed in range(100):
        rng = random.Random(3000 + seed)
        n = rng.randint(2, 30)
        dn = random_dual_network(rng, n)
        result = extract_dcs(dn, DcsOptions(delta=1, repair=False))
        if not result.physically_connected:
            all_connected = False
        if not verify_physical_connectivity(dn, result.nodes, Connectivity.STRICT):
            all_connected = False
    report(4, "match-only soundness (delta=1, unrepaired, strict)",
           all_connected, "100/100" if all_connected else "connectivity violated")


def test_c5_alignment_graph_correctness():
    mismatches = 0
    for seed in range(50):
        rng = random.Random(4000 + seed)
        n = rng.randint(2, 15)
        dn = random_dual_network(rng, n)
        for delta in (1, 2, 4, math.inf):
            for mode in (GapWeightRule.CONCEPTUAL, GapWeightRule.PER_HOP):
                ag = build_alignment_graph(dn, delta=delta, gap_mode=mode)
                actual = {}
                for u, v, w in ag.graph.edges():
                    kind, dist = kind_of(ag, u, v)
                    actual[(u, v)] = (kind, dist, w)
                expected = reference_alignment(dn, delta, mode)
                if actual.keys() != expected.keys():
                    mismatches += 1
                    continue
                for key, (kind, dist, w) in expected.items():
                    akind, adist, aw = actual[key]
                    if (akind, adist) != (kind, dist) or abs(aw - w) > 1e-12 * max(1.0, w):
                        mismatches += 1
                        break
    report(5, "alignment graph equals pairwise brute force",
           mismatches == 0, f"{mismatches} mismatching builds out of 400")


def test_c6_density_arithmetic():
    bad = 0
    for seed in range(1000):
        rng = random.Random(5000 + seed)
        g = random_graph(rng, rng.randint(1, 15), rng.uniform(0.1, 0.7))
        S = rng.sample(range(g.n), rng.randint(1, g.n))
        direct = subset_density(g, S)
        if abs(density(g, S) - direct) > REL_TOL * max(1.0, abs(direct)):
            bad += 1
    # Every peel step removes a minimum-volume node, by full recomputation.
    audits_ok = True
    for seed in range(20):
        rng = random.Random(6000 + seed)
        g = random_graph(rng, 50, 0.15)
        try:
            check_peel_order(g, peel(g)[1].removal_order)
        except AssertionError:
            audits_ok = False
    ok = bad == 0 and audits_ok
    report(6, "density arithmetic",
           ok, f"{bad}/1000 subset mismatches, audits_ok={audits_ok}")


def test_c7_determinism(tmp_path):
    inst_dir = tmp_path / "inst"
    assert main(["gen", "--nodes", "40", "--planted-size", "5", "--seed", "21",
                 "--out-dir", str(inst_dir)]) == 0
    args = ["dcs",
            "--conceptual", str(inst_dir / "conceptual.tsv"),
            "--physical", str(inst_dir / "physical.tsv"),
            "--correspondence", str(inst_dir / "correspondence.tsv"),
            "--delta", "3"]
    outputs = []
    for i in range(4):
        out = tmp_path / f"run{i}.json"
        assert main(args + ["--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    ok = all(blob == outputs[0] for blob in outputs)
    report(7, "byte-identical output across runs",
           ok, f"{len(outputs)} runs compared")


def test_c8_scale_smoke():
    n = 100_000
    pair_count = n * (n - 1) // 2
    p_phys = (500_000 - (n - 1)) / pair_count
    p_conc = 500_000 / pair_count
    inst = generate_planted(n, 8, seed=99,
                            background_edge_prob=p_conc, physical_edge_prob=p_phys)
    dn = inst.dual
    assert dn.physical.edge_count == pytest.approx(500_000, rel=0.02)
    assert dn.conceptual.edge_count == pytest.approx(500_000, rel=0.02)
    t0 = time.monotonic()
    result = extract_dcs(dn, DcsOptions(delta=2))
    elapsed = time.monotonic() - t0
    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 ** 2)
    ok = elapsed < 120.0 and rss_gb < 4.0 and result.physically_connected
    report(8, "scale smoke test (1e5 nodes, 5e5+5e5 edges, delta=2)",
           ok, f"{elapsed:.1f}s, peak {rss_gb:.2f} GB, |DCS|={len(result.nodes)}")
