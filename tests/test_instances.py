import hashlib
from importlib import resources

import numpy as np
import pytest

from fairkc.core import cost, euclidean_distances
from fairkc.harness import load_instance
from fairkc.instances import (
    PatternArity,
    gen_l_community,
    gen_proportional_gadget,
    gen_random,
)
from fairkc.solvers import gonzalez


class TestLCommunity:
    def test_alternating_two_color(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        assert inst.n == 8 and inst.m == 2
        assert inst.color_counts().tolist() == [4, 4]
        assert inst.dist[0, 3] == 0.0 and inst.dist[0, 4] == 1.0

    def test_ds_variant_counts(self):
        inst = gen_l_community(3, 4, 1.0, "ds-variant")
        assert inst.color_counts().tolist() == [8, 2, 2]

    def test_odd_mixed_last(self):
        inst = gen_l_community(3, 4, 1.0, "odd-mixed-last")
        # comm0 blue, comm1 red, last community 2 blue + 2 red
        assert inst.color_counts().tolist() == [6, 6]
        # last community is half/half
        assert inst.colors[8:].tolist() == [0, 0, 1, 1]

    def test_mixed_pattern_needs_even_size(self):
        with pytest.raises(PatternArity):
            gen_l_community(3, 3, 1.0, "ds-variant")

    def test_pseudometric_valid(self):
        gen_l_community(4, 3, 2.5, "alternating").check_triangle()

    def test_gonzalez_finds_zero_cost_with_k_equal_l(self):
        for l, size in [(2, 4), (3, 2), (4, 3)]:
            pattern = "alternating"
            inst = gen_l_community(l, size, 1.0, pattern)
            sol = gonzalez(inst, l)
            assert cost(inst, sol) == 0.0


class TestProportionalGadget:
    def test_structure(self):
        inst = gen_proportional_gadget(5, 1, 1.0, 1.0)
        counts = inst.color_counts()
        assert counts[0] == counts[1]  # equal halves
        r = 1.0 / 4.0
        same = inst.dist[inst.colors[:, None] == inst.colors[None, :]]
        assert float(same.max()) == 2 * r
        assert 2 * r < 1.0 / 1.0  # max same-color distance below R / alpha_ap
        cross = inst.dist[inst.colors[:, None] != inst.colors[None, :]]
        assert np.all(cross == 1.0)

    def test_k_must_be_at_least_five(self):
        with pytest.raises(ValueError):
            gen_proportional_gadget(4, 1, 1.0, 1.0)

    def test_metric_check_passes(self):
        gen_proportional_gadget(7, 1, 2.0, 0.5).check_triangle()


class TestRandom:
    def test_exact_proportions(self):
        inst = gen_random(8, 2, 2, [0.5, 0.5], seed=7)
        assert inst.color_counts().tolist() == [4, 4]

    def test_matrix_properties(self):
        inst = gen_random(20, 3, 2, [0.3, 0.3, 0.4], seed=1)
        assert np.array_equal(inst.dist, inst.dist.T)
        assert np.all(np.diagonal(inst.dist) == 0.0)
        inst.check_triangle(tol=1e-9)

    def test_same_seed_identical(self):
        a = gen_random(15, 2, 3, [0.6, 0.4], seed=42)
        b = gen_random(15, 2, 3, [0.6, 0.4], seed=42)
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(a.colors, b.colors)

    def test_every_color_present(self):
        inst = gen_random(5, 3, 2, [0.98, 0.01, 0.01], seed=0)
        assert np.all(inst.color_counts() >= 1)


def broadcast_distances(pts):
    """The n x n x dim broadcast formula with its triu + transpose fold."""
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.triu(np.sqrt((diff * diff).sum(axis=-1)), 1)
    return dist + dist.T


class TestEuclideanDistances:
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    def test_bytes_equal_the_broadcast_formula(self, n):
        rng = np.random.default_rng(n)
        for dim in range(0, 21):
            for pts in (rng.random((n, dim)), rng.normal(scale=1e3, size=(n, dim))):
                got = euclidean_distances(pts)
                assert got.tobytes() == broadcast_distances(pts).tobytes()

    @pytest.mark.parametrize("n", [2, 129])
    @pytest.mark.parametrize("dim", [64, 127, 128, 129, 130, 200, 300])
    def test_bytes_equal_the_broadcast_formula_in_many_dimensions(self, n, dim):
        # past 128 terms numpy's pairwise sum splits the squares in two halves
        rng = np.random.default_rng(dim)
        for pts in (rng.random((n, dim)), rng.normal(scale=1e3, size=(n, dim))):
            assert euclidean_distances(pts).tobytes() == broadcast_distances(pts).tobytes()

    def test_adult_mini_distances_are_pinned(self):
        inst = load_instance(str(resources.files("fairkc") / "data" / "adult_mini.csv"))
        digest = hashlib.sha256(inst.dist.tobytes()).hexdigest()
        assert digest == "f69b2439b0082703caecc754a7b9e109c54482a15c026ebdc1a483cfaf9643f6"
