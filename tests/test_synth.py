import math
import random
import sys

import pytest

from dualdense import ConfigError, brute_force_dcs, connected_components, generate_planted
from helpers import edge_weight, physically_connected


class TestGeneratePlanted:
    def test_planted_clique_weights(self):
        inst = generate_planted(10, 4, seed=7)
        dn = inst.dual
        planted = sorted(inst.planted)
        for i, a in enumerate(planted):
            for b in planted[i + 1:]:
                ca, cb = dn.pair_conceptual[a], dn.pair_conceptual[b]
                assert edge_weight(dn.conceptual, ca, cb) == 1.0

    def test_background_below_cap(self):
        inst = generate_planted(12, 4, seed=3, background_weight_cap=0.2)
        dn = inst.dual
        planted_c = {dn.pair_conceptual[k] for k in inst.planted}
        for u, v, w in dn.conceptual.edges():
            if u in planted_c and v in planted_c:
                assert w == 1.0
            else:
                assert 0.0 < w <= 0.2

    def test_planted_physically_connected(self):
        inst = generate_planted(10, 4, seed=7)
        assert physically_connected(inst.dual, inst.planted)

    def test_whole_physical_graph_connected(self):
        inst = generate_planted(15, 5, seed=9)
        assert len(connected_components(inst.dual.physical)) == 1

    def test_deterministic(self):
        a = generate_planted(10, 4, seed=7)
        b = generate_planted(10, 4, seed=7)
        assert a.planted == b.planted
        assert list(a.dual.conceptual.edges()) == list(b.dual.conceptual.edges())
        assert list(a.dual.physical.edges()) == list(b.dual.physical.edges())

    def test_seed_changes_instance(self):
        a = generate_planted(20, 5, seed=1)
        b = generate_planted(20, 5, seed=2)
        assert (a.planted != b.planted
                or list(a.dual.conceptual.edges()) != list(b.dual.conceptual.edges()))

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError):
            generate_planted(5, 6, seed=0)
        with pytest.raises(ConfigError):
            generate_planted(5, 1, seed=0)

    @pytest.mark.parametrize("cap", [5e-324, sys.float_info.min])
    def test_underflowing_weight_cap_rejected(self, cap):
        with pytest.raises(ConfigError, match="underflow"):
            generate_planted(10, 2, seed=0, background_weight_cap=cap)

    def test_smallest_usable_weight_cap(self):
        cap = math.nextafter(sys.float_info.min, 1.0)
        inst = generate_planted(10, 2, seed=0, background_weight_cap=cap)
        weights = [w for _, _, w in inst.dual.conceptual.edges() if w != 1.0]
        assert weights and all(0.0 < w <= cap for w in weights)

    def test_oracle_recovers_planted(self):
        inst = generate_planted(30, 6, seed=42)
        result = brute_force_dcs(inst.dual, max_nodes=6, node_cap=30)
        assert result.nodes == inst.planted
        # Planted clique density: 2 * C(6,2) * 1.0 / 6
        assert result.density == pytest.approx(5.0)

    def test_invariants_over_many_triples(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randint(4, 24)
            k = rng.randint(2, min(6, n))
            inst = generate_planted(n, k, seed=rng.randint(0, 10**6))
            dn = inst.dual
            assert len(inst.planted) == k
            assert physically_connected(dn, inst.planted)
            planted_c = {dn.pair_conceptual[p] for p in inst.planted}
            top = max((w for u, v, w in dn.conceptual.edges()
                       if not (u in planted_c and v in planted_c)), default=0.0)
            assert top < 1.0
            assert dn.physical.is_unit_weighted()
            assert len(connected_components(dn.physical)) == 1
