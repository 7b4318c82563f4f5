import contextvars
import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np
import pytest

from fairkc import core
from fairkc.core import Instance, cost, euclidean_distances
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

    def test_nan_proportion_rejected(self):
        # NaN is neither below 0 nor off the sum by more than 1e-9; let
        # through, the rounding of n * NaN loops some 9.2e18 times
        with pytest.raises(ValueError, match="nonnegative"):
            within(10, gen_random, 5, 2, 2, [0.5, np.nan], 0)

    def test_matrix_properties(self):
        inst = gen_random(20, 3, 2, [0.3, 0.3, 0.4], seed=1)
        assert np.array_equal(inst.dist, inst.dist.T)
        assert np.all(np.diagonal(inst.dist) == 0.0)
        inst.check_triangle()

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


class TestParallelBuild:
    @pytest.mark.parametrize("n", [1100, 2000])
    @pytest.mark.parametrize("dim", [1, 4, 9, 130])
    def test_bytes_equal_the_one_worker_build(self, monkeypatch, n, dim):
        pts = np.random.default_rng(n + dim).normal(scale=1e3, size=(n, dim))
        monkeypatch.setattr(core, "_cpu_count", lambda: 1)
        want = euclidean_distances(pts).tobytes()
        monkeypatch.setattr(core, "_cpu_count", lambda: 4)
        assert euclidean_distances(pts).tobytes() == want
        # from 8 coordinates on, the worker rule keeps these sizes serial
        assert core._distances(np.array(pts.T), 3).tobytes() == want
        if n * n * dim <= 5_000_000:  # the broadcast's n x n x dim temporaries stay small
            assert broadcast_distances(pts).tobytes() == want

    @pytest.mark.parametrize(
        "cpus, n, workers",
        [(1, 2000, None), (4, 1023, None), (4, 1024, 2), (4, 2000, 3), (2, 2000, 2)],
    )
    def test_workers_are_the_cpus_whose_scratch_fits_a_quarter_of_the_matrix(
        self, monkeypatch, cpus, n, workers
    ):
        started = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(core, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
        euclidean_distances(np.zeros((n, 1)))
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize(
        "dim, n, workers", [(4, 2000, 3), (9, 8191, 1), (9, 8192, 2), (130, 9215, 1), (130, 9216, 2)]
    )
    def test_every_running_sum_counts_in_the_scratch_budget(self, monkeypatch, dim, n, workers):
        # from 8 coordinates on, a worker holds 8 (dim 9) or 9 (dim 130) buffers
        monkeypatch.setattr(core, "_cpu_count", lambda: 4)
        monkeypatch.setattr(core, "_distances", lambda coords, w: w)
        assert euclidean_distances(np.zeros((n, dim))) == workers

    def test_more_workers_than_cores_under_frequent_switches(self):
        coords = np.array(np.random.default_rng(3).random((1100, 4)).T)
        want = core._distances(coords, 1).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = within(120, core._distances, coords, core._cpu_count() + 3)
                assert got.tobytes() == want
        finally:
            sys.setswitchinterval(interval)

    def test_a_failing_block_raises(self, monkeypatch):
        # every block of this 2-worker build overflows, and errstate makes that raise
        pts = np.arange(1100.0)[:, None] * 1e200
        monkeypatch.setattr(core, "_cpu_count", lambda: 2)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            within(120, euclidean_distances, pts)


def within(seconds, fn, *args):
    """fn(*args) in the caller's context, failing the test if it has not
    returned after `seconds`, as a deadlocked build would not.  The thread is
    a daemon, so a deadlocked one does not hold up the interpreter's exit."""
    outcome = []

    def run():
        try:
            outcome.append((fn(*args), None))
        except BaseException as exc:
            outcome.append((None, exc))

    thread = threading.Thread(target=contextvars.copy_context().run, args=(run,), daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{fn.__name__} did not return within {seconds} s"
    value, exc = outcome[0]
    if exc is not None:
        raise exc
    return value


def assert_passes_the_full_checks(inst):
    assert not inst.dist.flags.writeable and not inst.colors.flags.writeable
    Instance(dist=inst.dist, colors=inst.colors, m=inst.m)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 1100])
def test_feature_built_matrices_pass_the_full_checks(n):
    rng = np.random.default_rng(n)
    for dim in (0, 1, 4, 9):
        assert_passes_the_full_checks(gen_random(n, 1, dim, [1.0], seed=n + dim))
        pts = rng.normal(scale=1e3, size=(n, dim))
        assert_passes_the_full_checks(Instance.from_points(pts, np.zeros(n, dtype=int), 1))


def test_csv_matrices_pass_the_full_checks(tmp_path):
    assert_passes_the_full_checks(load_instance(str(resources.files("fairkc") / "data" / "adult_mini.csv")))
    rows = np.random.default_rng(11).normal(size=(1100, 3)).tolist()
    path = tmp_path / "points.csv"
    path.write_text("f0,f1,f2,color\n" + "".join(
        f"{a!r},{b!r},{c!r},{'xy'[i % 2]}\n" for i, (a, b, c) in enumerate(rows)
    ))
    inst = load_instance(str(path))
    assert inst.n == 1100
    assert_passes_the_full_checks(inst)


def test_from_points_checks_points_colors_and_m():
    pts = np.zeros((3, 2))
    for colors, m in (([0, 1], 2), ([0, 1, 2], 2), ([0, 0, 0], 2), ([0, 0, 0], 0)):
        with pytest.raises(ValueError):
            Instance.from_points(pts, colors, m)
    # inf - inf would put NaN on the diagonal, and NaN anywhere it spreads
    for bad in (np.inf, -np.inf, np.nan):
        pts[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Instance.from_points(pts, [0, 1, 1], 2)
