import hashlib
import itertools
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import dead_centers_reject, dense, sparse_rows
from fairkc.core import ExperimentConfig, FractionalAssignment, GFBounds, Instance
from fairkc.flow import max_flow_gf
from fairkc.harness import load_instance
from fairkc.instances import gen_l_community, gen_random
from fairkc import solvers
from fairkc.lp import (
    FEAS_TOL,
    PIV_TOL,
    EmptyRow,
    LinearProgram,
    NumericFailure,
    SparseRows,
    _start_clears,
    _verified,
    build_assignment_lp,
    first_feasible_step,
    group_classes,
    nearest_admissible_start,
    solve_feasibility,
)
from fairkc.solvers import alg_ds, assignment_gf, gonzalez

# sha256 over the verdicts and vertex bytes of `pinned_programs()`
PINNED_VERTICES = "691e2ea6ad7923fb52b2e9602c7d6851abe57f878619b13799b9c3c327aa9264"

# ---------------------------------------------------------------------------
# exact rational checker: vertex enumeration over tight-row subsets
# ---------------------------------------------------------------------------


def _gauss_solve(M, rhs):
    """Solve square Fraction system; None if singular."""
    n = len(rhs)
    A = [row[:] + [rhs[i]] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        inv = Fraction(1, 1) / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [v - f * w for v, w in zip(A[r], A[col])]
    return [A[r][n] for r in range(n)]


def rational_feasible(lp: LinearProgram) -> bool:
    """Exact feasibility by enumerating candidate vertices.

    The feasible region lives in a box, so if it is nonempty it has a vertex
    where nv linearly independent rows are tight (counting variable bounds).
    Every '=' row appears as a pair of opposite inequalities.
    """
    nv = lp.num_vars
    rows = []  # (coeffs, rhs) meaning a.x <= b, as Fractions
    for coeffs, rhs, eq in zip(dense(lp.constraints), lp.rhs, lp.is_eq):
        a = [Fraction(float(c)) for c in coeffs]
        b = Fraction(float(rhs))
        rows.append((a, b))
        if eq:
            rows.append(([-x for x in a], -b))
    bounds = [(Fraction(lo), Fraction(hi)) for lo, hi in lp.var_bounds]

    def satisfies(x):
        for a, b in rows:
            if sum(ai * xi for ai, xi in zip(a, x)) > b:
                return False
        return all(lo <= xi <= hi for xi, (lo, hi) in zip(x, bounds))

    var_ids = range(nv)
    for f in range(nv + 1):
        for fixed in itertools.combinations(var_ids, nv - f):
            free = [v for v in var_ids if v not in fixed]
            for pattern in itertools.product((0, 1), repeat=len(fixed)):
                base = [Fraction(0)] * nv
                for v, side in zip(fixed, pattern):
                    base[v] = bounds[v][side]
                if f == 0:
                    if satisfies(base):
                        return True
                    continue
                for tight in itertools.combinations(range(len(rows)), f):
                    M = [[rows[t][0][v] for v in free] for t in tight]
                    rhs = [
                        rows[t][1]
                        - sum(rows[t][0][v] * base[v] for v in fixed)
                        for t in tight
                    ]
                    sol = _gauss_solve(M, rhs)
                    if sol is None:
                        continue
                    x = base[:]
                    for v, xv in zip(free, sol):
                        x[v] = xv
                    if satisfies(x):
                        return True
    return False


def random_small_lp(rng, max_vars=6, max_cons=8):
    """Random rows of '<=', '=' and '>='; a '>=' row is stored negated."""
    nv = int(rng.choice([1, 2, 2, 3, 3, 4, 4, 5, 6]))
    nc = int(rng.integers(1, (5 if nv >= 5 else max_cons) + 1))
    A, b, is_eq = np.zeros((nc, nv)), np.zeros(nc), np.zeros(nc, dtype=bool)
    for r in range(nc):
        kterms = int(rng.integers(1, nv + 1))
        vs = rng.choice(nv, size=kterms, replace=False)
        coefs = [float(rng.integers(-4, 5)) or 1.0 for _ in vs]
        rel = str(rng.choice(["<=", "=", ">="], p=[0.45, 0.1, 0.45]))
        rhs = float(rng.integers(-3, 4)) / 2.0
        sign = -1.0 if rel == ">=" else 1.0
        A[r, vs] = [sign * c for c in coefs]
        b[r], is_eq[r] = sign * rhs, rel == "="
    return LinearProgram(
        constraints=sparse_rows(A),
        rhs=b,
        is_eq=is_eq,
        var_bounds=np.tile([0.0, 1.0], (nv, 1)),
    )


# ---------------------------------------------------------------------------


def one_var_lp(lo_rhs, hi_rhs):
    """lo_rhs <= x <= hi_rhs, the first row stored as -x <= -lo_rhs."""
    return LinearProgram(
        constraints=sparse_rows([[-1.0], [1.0]]),
        rhs=[-lo_rhs, hi_rhs],
        is_eq=[False, False],
        var_bounds=[[0.0, 1.0]],
    )


def lp_fields(**change):
    """A valid two-variable program, with some fields replaced."""
    fields = dict(
        constraints=[[1.0, -1.0], [1.0, 1.0]],
        rhs=[0.5, 1.0],
        is_eq=[False, True],
        var_bounds=[[0.0, 1.0], [0.25, 0.75]],
    )
    fields.update(change)
    fields["constraints"] = sparse_rows(fields["constraints"])
    return fields


class TestLinearProgram:
    @pytest.mark.parametrize(
        "change",
        [
            dict(constraints=[[1.0, np.nan], [1.0, 1.0]]),
            dict(constraints=[[1.0, -1.0], [np.inf, 1.0]]),
            dict(constraints=[[1.0, -np.inf], [1.0, 1.0]]),
            dict(rhs=[np.nan, 1.0]),
            dict(rhs=[0.5, -np.inf]),
            dict(rhs=[0.5]),
            dict(is_eq=[False, True, True]),
            dict(constraints=[[1.0, -1.0]]),
            dict(constraints=[1.0, -1.0]),
            dict(var_bounds=[[0.0, 1.0]]),
            dict(var_bounds=[[-0.1, 1.0], [0.25, 0.75]]),
            dict(var_bounds=[[0.0, 1.5], [0.25, 0.75]]),
            dict(var_bounds=[[0.0, np.nan], [0.25, 0.75]]),
            dict(var_bounds=[[0.0, 1.0], [0.75, 0.25]]),
        ],
        ids=[
            "nan-coef", "inf-coef", "neg-inf-coef", "nan-rhs", "inf-rhs",
            "short-rhs", "long-is-eq", "short-constraints", "1d-constraints",
            "short-bounds", "lo-below-0", "hi-above-1", "nan-bound", "lo-above-hi",
        ],
    )
    def test_rejects(self, change):
        with pytest.raises(ValueError):
            LinearProgram(**lp_fields(**change))

    @pytest.mark.parametrize(
        "indptr, indices",
        [
            ([1, 2, 4], [0, 1, 0, 1]),
            ([0, 2, 3], [0, 1, 0, 1]),
            ([0, 3, 2], [0, 1, 0, 1]),
            ([0, 2, 4], [0, 2, 0, 1]),
            ([0, 2, 4], [-1, 1, 0, 1]),
            ([0, 2, 4], [1, 0, 0, 1]),
            ([0, 2, 4], [1, 1, 0, 1]),
            ([[0, 2, 4]], [0, 1, 0, 1]),
        ],
        ids=[
            "indptr-not-from-0", "indptr-short-of-terms", "indptr-falls",
            "column-too-large", "column-negative", "columns-fall", "column-repeated",
            "2d-indptr",
        ],
    )
    def test_sparse_rows_reject(self, indptr, indices):
        with pytest.raises(ValueError):
            SparseRows(indptr, indices, [1.0, -1.0, 1.0, 1.0], 2)

    def test_rejects_dense_constraints(self):
        fields = lp_fields()
        fields["constraints"] = dense(fields["constraints"])
        with pytest.raises(TypeError):
            LinearProgram(**fields)

    def test_arrays_are_read_only_and_float64_is_not_copied(self):
        indptr, indices = np.array([0, 2, 4]), np.array([0, 1, 0, 1])
        data = np.array([1.0, -1.0, 1.0, 1.0])
        A = SparseRows(indptr, indices, data, 2)
        assert A.indptr is indptr and A.indices is indices and A.data is data
        lp = LinearProgram(**dict(lp_fields(), constraints=A))
        assert lp.constraints is A and lp.num_vars == 2 and len(lp.constraints) == 2
        arrays = [getattr(lp, name) for name in ("rhs", "is_eq", "var_bounds")]
        for arr in arrays + [indptr, indices, data]:
            with pytest.raises(ValueError):
                arr[0] = arr[1]
        assert solve_feasibility(lp) is not None

    def test_term_rows_are_built_once_and_read_only(self):
        A = sparse_rows([[0.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert A.term_rows.tolist() == [0, 0, 2]
        assert A.term_rows is A.term_rows and not A.term_rows.flags.writeable
        with pytest.raises(ValueError):
            A.term_rows[0] = 1


class TestSolver:
    def test_interval_feasible(self):
        x = solve_feasibility(one_var_lp(0.3, 0.7))
        assert x is not None and 0.3 - 1e-7 <= x[0] <= 0.7 + 1e-7

    def test_interval_infeasible(self):
        assert solve_feasibility(one_var_lp(0.8, 0.2)) is None

    def test_deterministic(self, rng):
        lp = random_small_lp(rng)
        a = solve_feasibility(lp)
        b = solve_feasibility(lp)
        if a is None:
            assert b is None
        else:
            assert np.array_equal(a, b)

    def test_agrees_with_rational_checker(self):
        rng = np.random.default_rng(20240202)
        feas = infeas = 0
        for _ in range(100):
            lp = random_small_lp(rng)
            got = solve_feasibility(lp) is not None
            want = rational_feasible(lp)
            assert got == want, f"solver={got} checker={want} lp={lp}"
            feas += got
            infeas += not got
        assert feas > 10 and infeas > 10  # both verdicts exercised

    def mixed_bounds_lp(self):
        # x0 + x1 >= 0.9 (stored negated), 2 x2 = 1, x3 - x0 <= 0
        return LinearProgram(
            constraints=sparse_rows([
                [-1.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, 2.0, 0.0],
                [-1.0, 0.0, 0.0, 1.0],
            ]),
            rhs=[-0.9, 1.0, 0.0],
            is_eq=[False, True, False],
            var_bounds=[[0.25, 0.75], [0.0, 1.0], [0.5, 0.5], [0.0, 0.5]],
        )

    def test_feasible_start_is_returned_as_is(self):
        x = solve_feasibility(self.mixed_bounds_lp(), start_at_upper=[1, 0, 1])
        assert x.dtype == np.float64
        assert x.tolist() == [0.75, 1.0, 0.5, 0.0]

    def test_feasible_nearest_start_on_assignment_lp(self):
        inst = gen_random(300, 2, 2, [0.5, 0.5], seed=0)
        S = list(gonzalez(inst, 4).centers)
        gfb = ExperimentConfig((4,), delta=0.5).gf_bounds(inst)
        _, R = assignment_gf(inst, S, gfb)
        lp, pairs = build_assignment_lp(inst, S, R, gfb)
        start = nearest_admissible_start(inst, pairs)
        corner = np.zeros(lp.num_vars)
        corner[start] = 1.0
        lhs = lp.constraints @ corner  # the start satisfies every row
        assert np.all(np.where(lp.is_eq, np.abs(lhs - lp.rhs), lhs - lp.rhs) <= 1e-9)
        x = solve_feasibility(lp, start_at_upper=start)
        assert x.dtype == corner.dtype and x.tobytes() == corner.tobytes()

    def test_start_violating_one_row_pivots(self):
        lp = self.mixed_bounds_lp()
        # the lower corner breaks only the first row
        x = solve_feasibility(lp, start_at_upper=[])
        assert x is not None and x.tolist() != [0.25, 0.0, 0.5, 0.0]
        assert x[0] + x[1] >= 0.9 - 1e-7
        assert 2.0 * x[2] == pytest.approx(1.0, abs=1e-7)
        assert x[3] - x[0] <= 1e-7
        assert all(lo - 1e-12 <= v <= hi + 1e-12 for v, (lo, hi) in zip(x, lp.var_bounds))
        x = solve_feasibility(one_var_lp(0.3, 0.7), start_at_upper=[0])
        assert x is not None and 0.3 - 1e-7 <= x[0] <= 0.7 + 1e-7

    def test_zero_rows_return_the_start_corner(self):
        lp = LinearProgram(
            constraints=SparseRows([0], [], [], 3),
            rhs=[],
            is_eq=[],
            var_bounds=[[0.0, 1.0], [0.25, 0.5], [0.0, 0.75]],
        )
        assert solve_feasibility(lp).tolist() == [0.0, 0.25, 0.0]
        assert solve_feasibility(lp, start_at_upper=[1, 2]).tolist() == [0.0, 0.5, 0.75]

    @pytest.mark.parametrize("start", [[-2], [2], [0, 2]])
    def test_start_outside_the_variables_rejected(self, start):
        # x0 + x1 = 1, x0 <= 0: a wrapped -2 started x0 at 1 and lost the
        # verdict, and 2 raised IndexError
        lp = LinearProgram(
            constraints=sparse_rows([[1.0, 1.0], [1.0, 0.0]]),
            rhs=[1.0, 0.0],
            is_eq=[True, False],
            var_bounds=[[0.0, 1.0], [0.0, 1.0]],
        )
        assert solve_feasibility(lp, start_at_upper=[0]).tolist() == [0.0, 1.0]
        with pytest.raises(ValueError, match=r"outside \[0, vars\)"):
            solve_feasibility(lp, start_at_upper=start)


class TestAssignmentLp:
    def balanced_pairs(self):
        # 2 coinciding (blue, red) pairs separated by distance 2
        dist = np.array(
            [
                [0.0, 0.0, 2.0, 2.0],
                [0.0, 0.0, 2.0, 2.0],
                [2.0, 2.0, 0.0, 0.0],
                [2.0, 2.0, 0.0, 0.0],
            ]
        )
        return Instance(dist=dist, colors=[0, 1, 0, 1], m=2)

    def test_balanced_pairs_feasible_at_zero(self):
        inst = self.balanced_pairs()
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        lp, pairs = build_assignment_lp(inst, [0, 2], 0.0, gfb)
        x = solve_feasibility(lp)
        assert x is not None
        fa = FractionalAssignment(n=inst.n, pairs=pairs, values=x)
        # indicator assignment pairing each point with its co-located center
        assert fa.pairs.tolist() == [[0, 0], [0, 1], [2, 2], [2, 3]]
        assert fa.values.tolist() == [1.0] * 4

    def test_unreachable_point_raises(self):
        inst = self.balanced_pairs()
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        with pytest.raises(EmptyRow):
            build_assignment_lp(inst, [0], 1.0, gfb)

    def test_full_radius_admits_uniform_split(self, rng):
        inst = gen_random(12, 2, 2, [0.5, 0.5], seed=5)
        gfb = GFBounds(beta=[0.4, 0.4], alpha=[0.6, 0.6])
        S = [0, 5, 9]
        R = float(inst.dist.max())
        lp, pairs = build_assignment_lp(inst, S, R, gfb)
        assert len(pairs) == len(S) * inst.n
        assert solve_feasibility(lp) is not None

    def test_community_radius_zero_admits_only_same_community(self):
        inst = gen_l_community(2, 4, 1.0, "alternating")
        gfb = GFBounds(beta=[0.5, 0.5], alpha=[0.5, 0.5])
        lp, pairs = build_assignment_lp(inst, [0, 4], 0.0, gfb)
        comm = np.arange(8) // 4
        assert all(comm[i] == comm[j] for i, j in pairs)

    def test_radius_monotonicity(self, rng):
        from conftest import random_instance, wide_bounds

        for _ in range(20):
            inst = random_instance(rng, n=int(rng.integers(6, 16)), m=2)
            gfb = wide_bounds(inst)
            S = sorted(rng.choice(inst.n, size=2, replace=False).tolist())
            radii = np.unique(inst.dist[S, :])
            verdicts = []
            for R in radii:
                try:
                    lp, _ = build_assignment_lp(inst, S, float(R), gfb)
                except EmptyRow:
                    verdicts.append(False)
                    continue
                verdicts.append(solve_feasibility(lp) is not None)
            # once feasible, stays feasible as the radius grows
            seen = False
            for v in verdicts:
                if seen:
                    assert v
                seen = seen or v

    def test_feasible_point_is_fractionally_fair(self, rng):
        from conftest import random_instance, wide_bounds

        for _ in range(10):
            inst = random_instance(rng, n=int(rng.integers(8, 20)), m=2)
            gfb = wide_bounds(inst)
            S = sorted(rng.choice(inst.n, size=3, replace=False).tolist())
            R = float(inst.dist.max())
            lp, pairs = build_assignment_lp(inst, S, R, gfb)
            x = solve_feasibility(lp, start_at_upper=nearest_admissible_start(inst, pairs))
            assert x is not None
            fa = FractionalAssignment(n=inst.n, pairs=pairs, values=x)
            tot, by_color = fa.marginals(inst, S)
            rows = np.bincount(fa.pairs[:, 1], weights=fa.values, minlength=inst.n)
            assert np.all(np.abs(rows - 1.0) <= 1e-6)
            for t in range(len(S)):
                for h in range(inst.m):
                    assert by_color[t, h] >= gfb.beta[h] * tot[t] - 1e-6
                    assert by_color[t, h] <= gfb.alpha[h] * tot[t] + 1e-6


# ---------------------------------------------------------------------------
# class aggregation: the aggregated LP decides exactly what the point LP does
# ---------------------------------------------------------------------------

ADULT_CSV = str(resources.files("fairkc") / "data" / "adult_mini.csv")


def verdict(inst, S, R, gfb, aggregate):
    lp, pairs = build_assignment_lp(inst, S, R, gfb, aggregate=aggregate)
    x = solve_feasibility(lp, start_at_upper=nearest_admissible_start(inst, pairs))
    return x is not None


def radii_from_cover(inst, S):
    """Candidate radii at or above the covering radius of S, ascending."""
    cands = np.unique(inst.dist[S, :])
    r_cover = inst.dist[S, :].min(axis=0).max()
    return cands[cands >= r_cover]


def point_classes(inst, S, R):
    """First member of each point's class: same color, same admissible centers."""
    first = {}
    masks = (inst.dist[S] <= R + 1e-12).T
    keys = [(int(c), *mask) for c, mask in zip(inst.colors, masks)]
    return np.asarray([first.setdefault(key, j) for j, key in enumerate(keys)])


def satisfies(lp, x, tol=1e-6):
    lhs = lp.constraints @ x
    if np.any(np.where(lp.is_eq, np.abs(lhs - lp.rhs), lhs - lp.rhs) > tol):
        return False
    return bool(np.all(x >= -tol) and np.all(x <= 1.0 + tol))


def reference_lp(inst, S, R, gfb, aggregate):
    """The assignment LP row by row, one coefficient at a time."""
    cls = point_classes(inst, S, R) if aggregate else np.arange(inst.n)
    size = np.bincount(cls, minlength=inst.n)
    reps = list(dict.fromkeys(cls.tolist()))  # classes in order of first member
    pairs = [(i, j) for i in S for j in reps if inst.dist[i, j] <= R + 1e-12]
    rows, rhs = [], []
    for i in S:
        block = [v for v, (c, _) in enumerate(pairs) if c == i]
        if not block:  # a center that admits nothing has no rows
            continue
        for h in range(gfb.m):
            lower, upper = np.zeros(len(pairs)), np.zeros(len(pairs))
            for v in block:
                j = pairs[v][1]
                ind = float(inst.colors[j] == h)
                lower[v] = size[j] * (gfb.beta[h] - ind)
                upper[v] = size[j] * (ind - gfb.alpha[h])
            rows += [lower, upper]
            rhs += [0.0, 0.0]
    for j in reps:
        rows.append(np.asarray([float(p == j) for _, p in pairs]))
        rhs.append(1.0)
    return np.asarray(rows), np.asarray(rhs), np.asarray(rhs) == 1.0, pairs


def seeded_random_cases():
    """Gonzalez centers on seeded random instances, m in {2, 3, 4}, n <= 60."""
    rng = np.random.default_rng(20230530)
    for m in (2, 3, 4):
        for _ in range(4):
            n = int(rng.integers(4 * m, 61))
            props = rng.dirichlet(np.full(m, 3.0))
            seed = int(rng.integers(2**31))
            inst = gen_random(n, m, 2, props / props.sum(), seed=seed)
            k = int(rng.integers(2, 6))
            cfg = ExperimentConfig((k,), delta=float(rng.choice([0.1, 0.3, 0.6])))
            yield inst, gonzalez(inst, k).centers, cfg.gf_bounds(inst)


@pytest.fixture(scope="module")
def adult_cases():
    """Gonzalez and alg-ds centers on adult_mini at k in {4, 5}, delta 0.2."""
    inst = load_instance(ADULT_CSV)
    cfg = ExperimentConfig(k_values=(4, 5), delta=0.2, theta=0.8)
    gfb = cfg.gf_bounds(inst)
    return [
        (inst, list(sel.centers), gfb)
        for k in cfg.k_values
        for sel in (gonzalez(inst, k), alg_ds(inst, cfg.ds_bounds(inst, k)))
    ]


def point_level_search(inst, S, gfb):
    """The radius search on point-level LPs alone: plain bisection, then rounding."""
    radii = radii_from_cover(inst, S)
    lo, hi = 0, len(radii) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        lp, pairs = build_assignment_lp(inst, S, float(radii[mid]), gfb)
        x = solve_feasibility(lp, start_at_upper=nearest_admissible_start(inst, pairs))
        if x is None:
            lo = mid + 1
        else:
            best, hi = (mid, pairs, x), mid - 1
    mid, pairs, x = best
    frac = FractionalAssignment(n=inst.n, pairs=pairs, values=x)
    return float(radii[mid]), max_flow_gf(frac, inst, S)


class TestClassAggregation:
    def test_point_level_is_the_singleton_partition(self):
        # every point its own class: both forms are the same program
        inst = gen_random(6, 6, 2, [1 / 6] * 6, seed=3)
        gfb = GFBounds(beta=[0.1] * 6, alpha=[0.5] * 6)
        S = [0, 4]
        R = float(radii_from_cover(inst, S)[0])
        assert len(set(point_classes(inst, S, R))) == inst.n
        agg, agg_pairs = build_assignment_lp(inst, S, R, gfb, aggregate=True)
        pt, pt_pairs = build_assignment_lp(inst, S, R, gfb)
        for a, b in [
            (getattr(agg.constraints, f), getattr(pt.constraints, f))
            for f in ("indptr", "indices", "data")
        ] + [(getattr(agg, f), getattr(pt, f)) for f in ("rhs", "is_eq", "var_bounds")]:
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        assert agg_pairs.tolist() == pt_pairs.tolist()

    def test_matrix_matches_row_by_row_reference(self):
        for inst, S, gfb in seeded_random_cases():
            S = list(S)
            radii = radii_from_cover(inst, S)
            for R in {radii[0], radii[len(radii) // 2], radii[-1]}:
                for aggregate in (False, True):
                    lp, pairs = build_assignment_lp(inst, S, float(R), gfb, aggregate=aggregate)
                    A, b, is_eq, want_pairs = reference_lp(inst, S, float(R), gfb, aggregate)
                    assert pairs.tolist() == [list(pair) for pair in want_pairs]
                    got_A = dense(lp.constraints)
                    for got, want in ((got_A, A), (lp.rhs, b), (lp.is_eq, is_eq)):
                        assert got.shape == want.shape and got.dtype == want.dtype
                        assert got.tobytes() == want.tobytes()
                    assert lp.var_bounds.tolist() == [[0.0, 1.0]] * len(pairs)

    def test_class_shape_and_weights(self):
        # coinciding pairs of one color collapse; proportion rows carry the size
        dist = np.zeros((6, 6))
        dist[:3, 3:] = dist[3:, :3] = 1.0
        inst = Instance(dist=dist, colors=[0, 0, 1, 1, 1, 0], m=2)
        gfb = GFBounds(beta=[0.3, 0.3], alpha=[0.7, 0.7])
        lp, pairs = build_assignment_lp(inst, [0, 3], 0.0, gfb, aggregate=True)
        assert pairs.tolist() == [[0, 0], [0, 2], [3, 3], [3, 5]]
        assert lp.constraints.shape == (4 + 4 + 4, 4)  # 2 blocks of 2m rows, 4 classes
        assert dense(lp.constraints)[:2].tolist() == [
            [2 * (0.3 - 1.0), 0.3, 0.0, 0.0],
            [2 * (1.0 - 0.7), -0.7, 0.0, 0.0],
        ]
        assert lp.rhs[:8].tolist() == [0.0] * 8 and not lp.is_eq[:8].any()
        assert dense(lp.constraints)[-4:].tolist() == np.eye(4).tolist()
        assert lp.rhs[-4:].tolist() == [1.0] * 4 and lp.is_eq[-4:].all()
        assert verdict(inst, [0, 3], 0.0, gfb, aggregate=True)

    def test_groups_match_unique_grouping(self):
        """`group_classes` against `np.unique` over (color, packed mask) rows."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            k, n, m = int(rng.integers(1, 21)), int(rng.integers(1, 300)), int(rng.integers(1, 5))
            adm = rng.random((k, n)) < rng.random()
            adm[:, rng.random(n) < 0.5] = adm[:, :1]  # repeated masks form classes
            colors = rng.integers(0, m, size=n)
            key = np.vstack([colors, np.packbits(adm, axis=0)]).T
            _, first, size = np.unique(key, axis=0, return_index=True, return_counts=True)
            order = np.argsort(first)
            reps, sizes = group_classes(colors, adm)
            assert reps.tolist() == first[order].tolist()
            assert sizes.tolist() == size[order].tolist()

    def test_solutions_map_both_ways(self, rng):
        # averaging over a class and spreading back preserve feasibility
        for _ in range(10):
            inst = gen_random(int(rng.integers(10, 30)), 2, 2, [0.5, 0.5],
                              seed=int(rng.integers(2**31)))
            gfb = ExperimentConfig((3,), delta=0.4).gf_bounds(inst)
            S = list(gonzalez(inst, 3).centers)
            R = float(radii_from_cover(inst, S)[-1])
            cls = point_classes(inst, S, R)
            pt, pt_pairs = build_assignment_lp(inst, S, R, gfb)
            agg, agg_pairs = build_assignment_lp(inst, S, R, gfb, aggregate=True)
            x, y = solve_feasibility(pt), solve_feasibility(agg)
            assert x is not None and y is not None
            share = {pair: y[v] for v, pair in enumerate(map(tuple, agg_pairs.tolist()))}
            spread = np.asarray([share[(i, cls[j])] for i, j in pt_pairs])
            assert satisfies(pt, spread)
            members = np.bincount(cls, minlength=inst.n)
            mean = np.zeros(agg.num_vars)
            index = {pair: v for v, pair in enumerate(map(tuple, agg_pairs.tolist()))}
            for v, (i, j) in enumerate(pt_pairs):
                mean[index[(i, cls[j])]] += x[v] / members[cls[j]]
            assert satisfies(agg, mean)

    def test_same_verdict_on_random_instances(self):
        both = set()
        for inst, S, gfb in seeded_random_cases():
            for R in radii_from_cover(inst, S):
                got = verdict(inst, S, float(R), gfb, aggregate=True)
                assert got == verdict(inst, S, float(R), gfb, aggregate=False), R
                both.add(got)
        assert both == {True, False}

    def test_same_verdict_on_adult(self, adult_cases):
        for inst, S, gfb in adult_cases:
            radii = radii_from_cover(inst, S)
            agg = [verdict(inst, S, float(R), gfb, aggregate=True) for R in radii]
            t = agg.index(True)
            assert all(agg[t:])  # one threshold, as monotonicity in R demands
            # point-level LPs take ~0.1 s here: check both sides of the
            # threshold and a stride through the rest
            for idx in sorted({max(t - 1, 0), t, *range(0, len(radii), 200)}):
                got = verdict(inst, S, float(radii[idx]), gfb, aggregate=False)
                assert got == agg[idx]

    def test_search_matches_point_level_reference(self, adult_cases):
        cases = list(seeded_random_cases()) + adult_cases
        for inst, S, gfb in cases:
            sol, R = assignment_gf(inst, S, gfb)
            want_R, want_assign = point_level_search(inst, list(S), gfb)
            assert R == want_R
            assert np.array_equal(sol.assign, want_assign)

    def test_point_level_rejection_is_numeric_failure(self, monkeypatch):
        # the walk's verdict is exact, so a point-level "infeasible" at the
        # radius it accepted is a solver fault, never an infeasible instance
        inst = gen_random(12, 2, 2, [0.5, 0.5], seed=5)
        gfb = GFBounds(beta=[0.4, 0.4], alpha=[0.6, 0.6])
        S = [0, 5, 9]
        probes, walked = [], []

        def build(inst, S, R, gfb, aggregate=False):
            probes.append((R, aggregate))
            return build_assignment_lp(inst, S, R, gfb, aggregate=aggregate)

        def walk(lp, steps, start_at_upper=None):
            walked.append(first_feasible_step(lp, steps, start_at_upper))
            return walked[-1]

        monkeypatch.setattr(solvers, "build_assignment_lp", build)
        monkeypatch.setattr(solvers, "solve_feasibility", lambda lp, start_at_upper=None: None)
        monkeypatch.setattr(solvers, "first_feasible_step", walk)
        with pytest.raises(NumericFailure):
            assignment_gf(inst, S, gfb)
        # the point LP at the screen's boundary, one walk LP over the window
        # above it (here the first step accepts), the point LP where it stops
        cands = radii_from_cover(inst, S)
        top = cands[min(len(cands) - 1, int(np.flatnonzero(cands == probes[0][0])[0]) + inst.n)]
        assert walked == [0]
        assert probes == [(probes[0][0], False), (top, False), (probes[0][0], False)]

    def test_point_rejection_at_the_boundary_alone_is_numeric_failure(self, monkeypatch):
        # the point LP fails only at the screen's boundary, which is the true
        # threshold; the walk accepts it, so the search raises rather than
        # return a larger radius
        inst = gen_random(12, 2, 2, [0.5, 0.5], seed=5)
        gfb = GFBounds(beta=[0.4, 0.4], alpha=[0.6, 0.6])
        S = [0, 5, 9]
        _, boundary = assignment_gf(inst, S, gfb)
        dist_S = inst.dist[S]
        cands = radii_from_cover(inst, S)
        passed = [R for R in cands if not dead_centers_reject(dist_S, inst.colors, R, gfb)]
        assert boundary == passed[0]
        probes = []

        def build(inst, S, R, gfb, aggregate=False):
            probes.append((R, aggregate))
            return build_assignment_lp(inst, S, R, gfb, aggregate=aggregate)

        def solve(lp, start_at_upper=None):
            R, aggregate = probes[-1]
            if R == boundary and not aggregate:
                return None
            return solve_feasibility(lp, start_at_upper)

        monkeypatch.setattr(solvers, "build_assignment_lp", build)
        monkeypatch.setattr(solvers, "solve_feasibility", solve)
        with pytest.raises(NumericFailure):
            assignment_gf(inst, S, gfb)
        top = cands[min(len(cands) - 1, int(np.flatnonzero(cands == boundary)[0]) + inst.n)]
        assert probes == [(boundary, False), (top, False), (boundary, False)]


def program_of_step(lp, steps, step):
    """lp without the variables of a later step than `step` (their lower bound is 0)."""
    keep = np.asarray(steps) <= step
    return LinearProgram(
        sparse_rows(dense(lp.constraints)[:, keep]),
        lp.rhs, lp.is_eq, lp.var_bounds[keep],
    )


class TestWalk:
    def test_walk_stops_at_the_first_step_the_rational_checker_accepts(self):
        rng = np.random.default_rng(20261019)
        outcomes = set()
        for _ in range(120):
            lp = random_small_lp(rng)
            steps = rng.integers(0, 4, size=lp.num_vars)
            start = np.flatnonzero((steps == 0) & (rng.random(lp.num_vars) < 0.5))
            want = next(
                (s for s in range(int(steps.max()) + 1)
                 if rational_feasible(program_of_step(lp, steps, s))),
                None,
            )
            assert first_feasible_step(lp, steps, start) == want, (lp, steps)
            outcomes.add(want)
        assert None in outcomes and {0, 1, 2} <= outcomes  # every kind of stop seen

    def test_walk_matches_each_radius_point_lp(self):
        # one point LP at the largest radius, each pair admitted at the first
        # radius that admits it: the walk stops where the point LP built at
        # that radius first is feasible
        stops = set()
        for inst, S, gfb in seeded_random_cases():
            S = list(S)
            radii = radii_from_cover(inst, S)
            lp, pairs = build_assignment_lp(inst, S, float(radii[-1]), gfb)
            steps = np.searchsorted(radii + 1e-12, inst.dist[pairs[:, 0], pairs[:, 1]])
            got = first_feasible_step(lp, steps, nearest_admissible_start(inst, pairs))
            want = next(
                i for i, R in enumerate(radii) if verdict(inst, S, float(R), gfb, aggregate=False)
            )
            assert got == want, (S, radii[want])
            stops.add(got > 0)
        assert stops == {True, False}

    @pytest.mark.parametrize("steps, start", [
        ([-1], None),         # a negative step
        ([0, 0], None),       # one step per variable
        ([[0]], None),
        ([1], [0]),           # a start at the upper bound of a later step
    ])
    def test_walk_rejects(self, steps, start):
        with pytest.raises(ValueError):
            first_feasible_step(one_var_lp(0.3, 0.7), steps, start)


def loop_nearest_start(inst, pairs):
    """The nearest start pair by pair: the smallest (distance, center id) per point."""
    best = {}
    for v, (i, j) in enumerate(pairs):
        key = (inst.dist[i, j], i)
        if j not in best or key < best[j][0]:
            best[j] = (key, v)
    return [v for (_, v) in best.values()]


class TestNearestStart:
    def test_matches_pair_loop(self, adult_cases):
        for inst, S, gfb in list(seeded_random_cases()) + adult_cases:
            radii = radii_from_cover(inst, S)
            for R in radii[:: max(1, len(radii) // 4)]:
                for aggregate in (False, True):
                    _, pairs = build_assignment_lp(inst, S, float(R), gfb, aggregate=aggregate)
                    got = nearest_admissible_start(inst, pairs).tolist()
                    assert got == sorted(loop_nearest_start(inst, pairs))

    def test_ties_go_to_the_lower_center_id(self):
        # all distances equal: center 1 beats center 3 whatever their order in
        # pairs, a repeated pair keeps its first index
        inst = Instance(dist=np.zeros((4, 4)), colors=[0, 1, 0, 1], m=2)
        pairs = np.array([(3, 2), (3, 0), (1, 0), (1, 2), (0, 2), (1, 0)])
        assert loop_nearest_start(inst, pairs) == [4, 2]
        assert nearest_admissible_start(inst, pairs).tolist() == [2, 4]
        assert nearest_admissible_start(inst, np.empty((0, 2), dtype=np.intp)).tolist() == []


# ---------------------------------------------------------------------------
# differential check against HiGHS
# ---------------------------------------------------------------------------


def highs_feasible(lp: LinearProgram) -> bool:
    """Feasibility verdict of scipy's HiGHS on the same program."""
    A, b, eq = dense(lp.constraints), lp.rhs, lp.is_eq
    ub = ~eq
    res = linprog(
        np.zeros(lp.num_vars),
        A_ub=A[ub] if ub.any() else None,
        b_ub=b[ub] if ub.any() else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=lp.var_bounds,
        method="highs",
    )
    assert res.status in (0, 2), res.message  # solved, or proven infeasible
    return res.status == 0


def test_verdict_matches_highs():
    """solve_feasibility and HiGHS agree on random assignment LPs, both forms."""
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        m=st.integers(2, 4),
        n=st.integers(8, 40),
        k=st.integers(2, 5),
        delta=st.sampled_from([0.05, 0.2, 0.5]),
        at=st.floats(0.0, 1.0),
    )
    def check(seed, m, n, k, delta, at):
        rng = np.random.default_rng(seed)
        props = rng.dirichlet(np.full(m, 2.0))
        inst = gen_random(n, m, 2, props / props.sum(), seed=seed)
        S = sorted(rng.choice(n, size=k, replace=False).tolist())
        gfb = ExperimentConfig((k,), delta=delta).gf_bounds(inst)
        radii = radii_from_cover(inst, S)
        R = float(radii[int(at**3 * (len(radii) - 1))])  # thresholds sit low
        for aggregate in (False, True):
            lp, pairs = build_assignment_lp(inst, S, R, gfb, aggregate=aggregate)
            start = nearest_admissible_start(inst, pairs)
            got = solve_feasibility(lp, start_at_upper=start) is not None
            assert got == highs_feasible(lp)
            seen.add(got)

    check()
    assert seen == {True, False}  # both verdicts exercised


def test_walk_near_delta_one_stops_at_the_highs_threshold():
    """Near delta = 1 the walk gets past radii whose class LP fails the
    residual check: the search returns the first radius whose point LP HiGHS
    calls feasible."""
    inst = gen_random(16, 4, 2, [0.5343675364911672, 0.017810095166218093,
                                 0.18795202159689522, 0.25987034674571946], seed=1685729627)
    gfb = ExperimentConfig((10,), delta=0.9999978880942781).gf_bounds(inst)
    S = list(gonzalez(inst, 10).centers)
    radii = radii_from_cover(inst, S)
    want = next(R for R in radii if highs_feasible(build_assignment_lp(inst, S, float(R), gfb)[0]))
    assert assignment_gf(inst, S, gfb)[1] == want


# ---------------------------------------------------------------------------
# pinned vertices
# ---------------------------------------------------------------------------


def assignment_programs(rng, count, sizes, deltas):
    """Assignment LPs on seeded instances, both forms, from the nearest start."""
    for _ in range(count):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(*sizes))
        k = int(rng.integers(2, min(n, 8) + 1))
        props = rng.dirichlet(np.ones(m))
        inst = gen_random(n, m, 2, props / props.sum(), seed=int(rng.integers(2**31)))
        gfb = ExperimentConfig((k,), delta=float(rng.choice(deltas))).gf_bounds(inst)
        for S in (
            list(gonzalez(inst, k).centers),
            sorted(rng.choice(n, size=k, replace=False).tolist()),
        ):
            radii = radii_from_cover(inst, S)
            for R in radii[:: max(1, len(radii) // 3)]:
                for aggregate in (False, True):
                    lp, pairs = build_assignment_lp(inst, S, float(R), gfb, aggregate=aggregate)
                    yield lp, nearest_admissible_start(inst, pairs)


def pinned_programs():
    """Small programs and their starts, where bound flips and Bland's rule are common.

    Random rows from the lower corner and from a random one; assignment LPs
    of the benchmark's fuzz-small shapes (n < 25); and point LPs of n in
    [55, 80] at delta 0 or 0.05, whose long degenerate runs switch the
    pricing to Bland's rule.
    """
    rng = np.random.default_rng(20260601)
    for _ in range(300):
        lp = random_small_lp(rng)
        yield lp, None
        yield lp, np.flatnonzero(rng.random(lp.num_vars) < 0.5)
    yield from assignment_programs(rng, 60, (4, 25), (0.0, 0.05, 0.3))
    yield from assignment_programs(rng, 20, (55, 81), (0.0, 0.05))


def test_pinned_vertices():
    """Verdict and vertex bytes of every pinned program are the recorded ones.

    Any change to the pivot path or to the arithmetic of an update moves the
    digest, so a rewrite of the simplex loop that claims the same vertices
    must keep it.
    """
    digest = hashlib.sha256()
    verdicts = set()
    for lp, start in pinned_programs():
        x = solve_feasibility(lp, start_at_upper=start)
        digest.update(b"none" if x is None else x.tobytes())
        verdicts.add(x is None)
    assert verdicts == {True, False}
    assert digest.hexdigest() == PINNED_VERTICES


# ---------------------------------------------------------------------------
# the simplex loop against a frozen reference
# ---------------------------------------------------------------------------

# The loop as it was before the tableau kept only enterable columns and the
# cost row, and before the start screen's early exit: a dense tableau over
# structural | slack | artificial columns and a separate reduced-cost vector.
# The solver must reach the same verdict and vertex bytes on every program.


def reference_start_clears(A, b, is_eq, x0):
    """`_start_clears` without its early exit."""
    rows = A.term_rows
    terms = A.data * x0[A.indices]
    resid = b - np.bincount(rows, terms, minlength=len(A))
    size = np.bincount(rows, np.abs(terms), minlength=len(A)) + np.abs(b)
    err = (np.diff(A.indptr) + 2) * np.finfo(float).eps * size
    broken = np.where(is_eq, np.abs(resid) > PIV_TOL - err, resid < -PIV_TOL + err)
    return not broken.any()


def reference_solve(lp, start_at_upper=None):
    """`solve_feasibility` with every column stored and the costs apart."""
    A, b, is_eq = lp.constraints, lp.rhs, lp.is_eq
    m, n = A.shape
    lo, hi = lp.var_bounds.T
    given = () if start_at_upper is None else start_at_upper
    up = np.unique(np.fromiter(given, dtype=np.intp))
    x0 = lo.copy()
    x0[up] = hi[up]
    if reference_start_clears(A, b, is_eq, x0):
        return x0
    resid = b - dense(A) @ x0
    violated = np.where(is_eq, np.abs(resid) > PIV_TOL, resid < -PIV_TOL)
    art_rows = np.flatnonzero(violated)
    n_art = art_rows.size
    if n_art == 0:
        return x0
    ncols = n + m + n_art
    T = np.zeros((m, ncols))
    T[A.term_rows, A.indices] = A.data
    T[:, n : n + m] = np.eye(m)
    T[art_rows] *= np.sign(resid[art_rows])[:, None]
    T[art_rows, n + m + np.arange(n_art)] = 1.0
    col_lo = np.concatenate([lo, np.zeros(m + n_art)])
    col_hi = np.concatenate([hi, np.where(is_eq, 0.0, np.inf), np.full(n_art, np.inf)])
    basis = np.arange(n, n + m)
    basis[art_rows] = n + m + np.arange(n_art)
    xb = np.where(violated, np.abs(resid), resid)
    way = np.ones(ncols)
    way[up] = -1.0
    way[basis] = 0.0
    movable = col_hi - col_lo > PIV_TOL
    dvec = (np.arange(ncols) >= n + m).astype(float)
    for r in art_rows:
        dvec -= T[r, :]

    def extract():
        x = np.where(way < 0, col_hi, col_lo)
        x[basis] = xb
        return _verified(A, b, is_eq, np.clip(x[:n], lo, hi))

    cap = 50 * (n + m)
    stalled = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(cap):
            obj = float(xb[basis >= n + m].sum())
            if obj <= PIV_TOL:
                return extract()
            cand = movable & (way * dvec < -PIV_TOL)
            if not cand.any():
                return None if obj > FEAS_TOL else extract()
            if stalled > 40:
                j = int(cand.argmax())
            else:
                j = int(np.where(cand, np.abs(dvec), 0.0).argmax())
            eff = -way[j] * T[:, j]
            bound = np.where(eff > 0, col_hi[basis], col_lo[basis])
            limits = np.where(np.abs(eff) > PIV_TOL, (bound - xb) / eff, np.inf)
            np.maximum(limits, 0.0, out=limits)
            t_flip = col_hi[j] - col_lo[j]
            t_star = min(float(limits.min()), t_flip)
            if not np.isfinite(t_star):
                raise NumericFailure("unbounded ray in phase 1")
            stalled = 0 if t_star > 1e-12 else stalled + 1
            reach = t_star + 1e-12
            leave = np.where(limits <= reach, basis, ncols)
            r = int(leave.argmin())
            xb += eff * t_star
            if leave[r] >= (j if t_flip <= reach else ncols):
                way[j] = -way[j]
                continue
            piv = T[r, j]
            if abs(piv) <= PIV_TOL:
                raise NumericFailure("numerically singular pivot")
            enter_val = (col_lo[j] + t_star) if way[j] > 0 else (col_hi[j] - t_star)
            out = basis[r]
            way[out] = -1.0 if eff[r] > 0 else 1.0
            if out >= n + m:
                movable[out] = False
            rowvals = T[r, :] / piv
            rows = T[:, j].nonzero()[0]
            T[rows] -= np.outer(T[rows, j], rowvals)
            T[r, :] = rowvals
            dvec -= dvec[j] * rowvals
            basis[r] = j
            way[j] = 0.0
            xb[r] = enter_val
    raise NumericFailure(f"iteration cap {cap} exceeded")


def bounded_lp(rng):
    """Random rows over columns of mixed boxes, where the pins have only [0, 1].

    Columns are [0, 1], fixed at 0, at 1 or in between, narrower than PIV_TOL,
    or a random [lo, hi].  About a quarter of the rows are equalities, and
    most rows hold at a random point of the boxes.
    """
    nv, nc = (int(v) for v in rng.integers(1, 8, size=2))
    kind = rng.integers(0, 6, size=nv)
    lo = rng.random(nv)
    hi = lo.copy()
    lo[kind == 0], hi[kind == 0] = 0.0, 1.0
    lo[kind == 1] = hi[kind == 1] = 0.0
    lo[kind == 2] = hi[kind == 2] = 1.0
    thin = kind == 4
    hi[thin] = np.minimum(1.0, lo[thin] + PIV_TOL * rng.random(thin.sum()))
    lo[thin] = np.maximum(0.0, hi[thin] - PIV_TOL * rng.random(thin.sum()))
    span = kind == 5
    ends = np.sort(rng.random((span.sum(), 2)), axis=1)
    lo[span], hi[span] = ends.T
    shape = (nc, nv)
    coef = rng.integers(-4, 5, size=shape) / rng.choice([1, 2, 3], size=shape)
    A = np.where(rng.random(shape) < 0.6, coef, 0.0)
    is_eq = rng.random(nc) < 0.25
    at = A @ (lo + (hi - lo) * rng.random(nv)) + np.where(is_eq, 0.0, 0.3 * rng.random(nc))
    b = np.where(rng.random(nc) < 0.6, at, rng.integers(-3, 4, size=nc) / 2.0)
    return LinearProgram(sparse_rows(A), b, is_eq, np.column_stack([lo, hi]))


def solve_outcome(solve, lp, start):
    """Vertex bytes, None when infeasible, or the NumericFailure's message."""
    try:
        x = solve(lp, start_at_upper=start)
    except NumericFailure as err:
        return str(err)
    return None if x is None else x.tobytes()


def test_same_vertices_as_the_reference_loop():
    rng = np.random.default_rng(20261019)
    programs = []
    for _ in range(1500):
        lp = bounded_lp(rng)
        programs += [(lp, None), (lp, np.flatnonzero(rng.random(lp.num_vars) < 0.5))]
    programs += assignment_programs(rng, 12, (4, 25), (0.0, 0.05, 0.3))
    outcomes, pivoted_fixed = set(), 0
    for lp, start in programs:
        got = solve_outcome(solve_feasibility, lp, start)
        assert got == solve_outcome(reference_solve, lp, start)
        outcomes.add(type(got))
        lo, hi = lp.var_bounds.T
        x0 = start_corner(lp, start)
        if (hi - lo <= PIV_TOL).any() and not _start_clears(lp.constraints, lp.rhs, lp.is_eq, x0):
            pivoted_fixed += 1
    assert outcomes == {bytes, type(None)}
    assert pivoted_fixed > 500  # tableaus with fixed columns, where the pins have none


# ---------------------------------------------------------------------------
# the per-term product and the start screen
# ---------------------------------------------------------------------------


def start_corner(lp, start):
    """The solver's starting point: lower bounds, `start` at its upper ones."""
    x = lp.var_bounds[:, 0].copy()
    if start is not None:
        x[start] = lp.var_bounds[start, 1]
    return x


def dense_breaks_a_row(lp, x):
    """Whether the dense product's residual breaks a row by more than PIV_TOL."""
    resid = lp.rhs - dense(lp.constraints) @ x
    return bool(np.where(lp.is_eq, np.abs(resid) > PIV_TOL, resid < -PIV_TOL).any())


def screen_outcomes(lp, points):
    """How many points the screen clears; fails on one the dense product breaks."""
    cleared = 0
    for x in points:
        if _start_clears(lp.constraints, lp.rhs, lp.is_eq, x):
            assert not dense_breaks_a_row(lp, x)
            cleared += 1
    return cleared


class TestBlockedProduct:
    """`SparseRows @ x` against the dense product, which BLAS sums in blocks.

    Their last bits may differ, which matters only where the residual seeds
    the tableau: a start the screen clears must be one that the dense
    product's residual would clear too."""

    def test_pinned_programs(self):
        cleared = held = 0
        for lp, start in pinned_programs():
            x = solve_feasibility(lp, start_at_upper=start)
            points = [start_corner(lp, start)] + ([] if x is None else [x])
            cleared += screen_outcomes(lp, points)
            held += len(points)
        assert 0 < cleared < held

    def test_adult_point_lps(self):
        inst = load_instance(ADULT_CSV)
        cfg = ExperimentConfig(k_values=(4, 8, 12), delta=0.2, theta=0.8)
        gfb = cfg.gf_bounds(inst)
        for k in cfg.k_values:
            S = list(gonzalez(inst, k).centers)
            _, R = assignment_gf(inst, S, gfb)
            lp, pairs = build_assignment_lp(inst, S, R, gfb)
            start = start_corner(lp, nearest_admissible_start(inst, pairs))
            x = solve_feasibility(lp, start_at_upper=np.flatnonzero(start))
            assert screen_outcomes(lp, [start]) == 0  # the start breaks a row
            assert screen_outcomes(lp, [x]) == 1

    @pytest.mark.parametrize("rows", [1, 2, 3, 63, 64, 65, 127, 128, 129, 255, 256, 257, 513])
    def test_row_counts_across_block_edges(self, rows):
        rng = np.random.default_rng(rows)
        eps = np.finfo(float).eps
        for cols, density in ((7, 0.6), (50, 0.5), (300, 0.02), (1000, 0.005)):
            shape = (rows, cols)
            full = np.where(rng.random(shape) < density, rng.normal(size=shape), 0.0)
            A = sparse_rows(full)
            assert A.shape == shape and dense(A).tobytes() == full.tobytes()
            # two summation orders of k terms differ by at most k eps sum |terms|
            x = rng.random(cols)
            bound = np.diff(A.indptr) * eps * (np.abs(full) @ x)
            assert np.all(np.abs(A @ x - full @ x) <= bound)

    def test_row_broken_only_by_the_dense_bits_builds_a_tableau(self):
        """A row whose dense residual is -PIV_TOL - d/2 and whose per-term
        residual is -PIV_TOL + d/2, d the gap between the two sums."""
        rng = np.random.default_rng(12)
        for _ in range(200):
            coef = rng.normal(scale=1e4, size=300)
            per_term = np.bincount(np.zeros(coef.size, dtype=int), coef)[0]
            dense = (coef[None, :] @ np.ones(coef.size))[0]
            if dense > per_term:
                break
        else:
            pytest.fail("no row whose dense sum exceeds its per-term sum")
        b = dense - PIV_TOL - (dense - per_term) / 2
        lp = LinearProgram(
            constraints=sparse_rows(coef[None, :]),
            rhs=[b],
            is_eq=[False],
            var_bounds=np.tile([0.0, 1.0], (coef.size, 1)),
        )
        x0 = np.ones(coef.size)
        assert dense_breaks_a_row(lp, x0)
        assert (lp.rhs - lp.constraints @ x0)[0] >= -PIV_TOL  # unbroken per term
        x = solve_feasibility(lp, start_at_upper=range(coef.size))
        assert x is not None and x.tobytes() != x0.tobytes()
