import hashlib
from collections import deque
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_entries
from fairkc import harness, solvers
from fairkc.core import ExperimentConfig, FractionalAssignment, GFBounds, Instance
from fairkc.flow import (
    InternalInfeasible,
    _residual,
    _round_by_network,
    feasible_integral_flow,
    max_flow,
    max_flow_gf,
)
from fairkc.instances import gen_random


def random_fractional(rng, inst, Q):
    """Sparse unit-row fractional assignment over centers Q."""
    entries = {}
    for j in range(inst.n):
        deg = int(rng.integers(1, len(Q) + 1))
        chosen = rng.choice(len(Q), size=deg, replace=False)
        w = rng.random(deg) + 0.05
        w /= w.sum()
        for t, wi in zip(chosen, w):
            entries[(Q[t], j)] = entries.get((Q[t], j), 0.0) + float(wi)
    return from_entries(inst.n, entries)


def fractional_violation(x, inst, Q, gfb):
    tot, by_color = x.marginals(inst, Q)
    rho = 0.0
    for t in range(len(Q)):
        for h in range(inst.m):
            rho = max(
                rho,
                gfb.beta[h] * tot[t] - by_color[t, h],
                by_color[t, h] - gfb.alpha[h] * tot[t],
            )
    return max(rho, 0.0)


class TestBoundedFlow:
    def test_single_arc_meets_requirement(self):
        assert feasible_integral_flow(2, 0, 1, [0], [1], [0], [3], 3).tolist() == [3]

    def test_forced_lower_bound_conflicts_with_requirement(self):
        assert feasible_integral_flow(2, 0, 1, [0], [1], [2], [2], 1) is None

    def test_flow_conservation_and_bounds_exact(self, rng):
        for _ in range(50):
            n_mid = int(rng.integers(1, 5))
            tails, heads, lower, upper = [], [], [], []
            for t in range(n_mid):
                hi = int(rng.integers(1, 5))
                lo = int(rng.integers(0, hi + 1))
                for tail, head in ((0, 2 + t), (2 + t, 1)):
                    tails.append(tail)
                    heads.append(head)
                    lower.append(lo)
                    upper.append(hi)
            tails, heads = np.array(tails), np.array(heads)
            for need in range(0, 2 * n_mid + 1):
                flows = feasible_integral_flow(
                    2 + n_mid, 0, 1, tails, heads, lower, upper, need
                )
                if flows is None:
                    continue
                assert flows.dtype == np.int64
                assert np.all((lower <= flows) & (flows <= upper))
                # conservation at middle nodes and exact value at source
                assert flows[tails == 0].sum() == need
                for t in range(n_mid):
                    assert flows[heads == 2 + t].sum() == flows[tails == 2 + t].sum()

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="lower <= upper"):
            feasible_integral_flow(2, 0, 1, [0], [1], [3], [2], 1)

    def test_numpy_ints_accepted_and_floats_rejected(self):
        flows = feasible_integral_flow(
            np.int64(2), np.int32(0), np.int64(1),
            np.array([0], dtype=np.int32), np.array([1], dtype=np.uint8),
            np.array([0]), np.array([2], dtype=np.int16), np.int64(2),
        )
        assert flows.tolist() == [2]
        with pytest.raises(TypeError):  # used to give the flow [1.0] for value 1
            feasible_integral_flow(2, 0, 1, [0], [1], [0.5], [2.5], 1)

    def test_negative_source_rejected(self):
        # -1 used to wrap round to the sink and report [0] for value 1
        with pytest.raises(ValueError, match="out of range"):
            feasible_integral_flow(2, -1, 1, [0], [1], [0], [3], 1)

    def test_source_equal_to_sink_rejected(self):
        # used to report [0] for a required value of 2
        with pytest.raises(ValueError, match="must differ"):
            feasible_integral_flow(2, 1, 1, [0], [1], [0], [3], 2)

    def test_source_past_last_node_rejected(self):
        # used to raise a bare IndexError
        with pytest.raises(ValueError, match="out of range"):
            feasible_integral_flow(2, 5, 1, [0], [1], [0], [3], 1)

    @pytest.mark.parametrize("tail, head", [(0, 2), (-1, 1)])
    def test_arc_endpoint_out_of_range_rejected(self, tail, head):
        with pytest.raises(ValueError, match="arc endpoint out of range"):
            feasible_integral_flow(2, 0, 1, [tail], [head], [0], [3], 1)

    def test_unequal_arc_arrays_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            feasible_integral_flow(3, 0, 1, [0, 2], [2, 1], [0], [3, 3], 1)


class AddAndFreeze:
    """Reference: the list builder that `_residual` replaced.  `add` appends
    arc e and its reverse e ^ 1; `freeze` sorts each node's arcs by
    (head, arc id) once."""

    def __init__(self, num_nodes):
        self.adj = [[] for _ in range(num_nodes)]
        self.to = []
        self.cap = []

    def add(self, u, v, cap):
        idx = len(self.to)
        self.to.extend([v, u])
        self.cap.extend([cap, 0])
        self.adj[u].append(idx)
        self.adj[v].append(idx + 1)
        return idx

    def freeze(self):
        for lst in self.adj:
            lst.sort(key=lambda e: (self.to[e], e))  # lowest head first

    def csr(self):
        """(to, cap, start, order) over the frozen lists, for `max_flow`."""
        start = np.cumsum([0] + [len(lst) for lst in self.adj]).tolist()
        return self.to, self.cap, start, [e for lst in self.adj for e in lst]


def edmonds_karp(to, cap, start, order, s, t):
    """Reference: the breadth-first Edmonds-Karp loop that `max_flow` must
    match path for path."""
    total = 0
    while True:
        parent_arc = {s: -1}
        queue = deque([s])
        while queue and t not in parent_arc:
            u = queue.popleft()
            for e in order[start[u]:start[u + 1]]:
                v = to[e]
                if cap[e] > 0 and v not in parent_arc:
                    parent_arc[v] = e
                    queue.append(v)
        if t not in parent_arc:
            return total
        bottleneck = None
        v = t
        while v != s:
            e = parent_arc[v]
            bottleneck = cap[e] if bottleneck is None else min(bottleneck, cap[e])
            v = to[e ^ 1]
        v = t
        while v != s:
            e = parent_arc[v]
            cap[e] -= bottleneck
            cap[e ^ 1] += bottleneck
            v = to[e ^ 1]
        total += bottleneck


def random_networks():
    """3,000 seeded networks of 2-14 nodes; arcs drawn with replacement give
    parallel and antiparallel pairs, cycles and self-loops; about a fifth of
    the capacities are zero."""
    rng = np.random.default_rng(1970)
    for _ in range(3000):
        n = int(rng.integers(2, 15))
        s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
        ends = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
        caps = np.where(rng.random(len(ends)) < 0.2, 0, rng.integers(1, 5, len(ends)))
        yield n, s, t, ends, caps


def test_residual_matches_add_and_freeze():
    for n, s, t, ends, caps in random_networks():
        ref = AddAndFreeze(n)
        for (u, v), c in zip(ends.tolist(), caps.tolist()):
            ref.add(u, v, c)
        ref.freeze()
        assert _residual(n, ends[:, 0], ends[:, 1], caps) == ref.csr()


def test_max_flow_matches_edmonds_karp_on_random_networks():
    for n, s, t, ends, caps in random_networks():
        got, want = (_residual(n, ends[:, 0], ends[:, 1], caps) for _ in range(2))
        assert max_flow(*got, s, t) == edmonds_karp(*want, s, t)
        assert got[1] == want[1]


def reference_feasible_flow(num_nodes, source, sink, arcs, required_value):
    """Reference: the list-built `feasible_integral_flow` that the array one
    replaced, over (tail, head, lower, upper) arcs."""
    n = num_nodes
    excess = [0] * n
    res = AddAndFreeze(n + 2)
    arc_ids = []
    for tail, head, lower, upper in arcs:
        arc_ids.append(res.add(tail, head, upper - lower))
        excess[head] += lower
        excess[tail] -= lower
    excess[source] += required_value
    excess[sink] -= required_value

    ss, tt = n, n + 1
    demand = 0
    for w in range(n):
        if excess[w] > 0:
            res.add(ss, w, excess[w])
            demand += excess[w]
        elif excess[w] < 0:
            res.add(w, tt, -excess[w])
    res.freeze()
    if edmonds_karp(*res.csr(), ss, tt) < demand:
        return None
    return [upper - res.cap[e] for (_, _, _, upper), e in zip(arcs, arc_ids)]


def random_bounded_network(rng):
    """Planted walk flows from s to t plus idle arcs (self-loops, parallel
    arcs and cycles among them), bounds around the planted flow; half the
    time a value or some lower bounds are redrawn, which is mostly
    infeasible."""
    n = int(rng.integers(2, 11))
    s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
    tails, heads, flow = [], [], []
    value = 0
    for _ in range(int(rng.integers(0, 4))):
        walk = [s, *rng.integers(0, n, size=int(rng.integers(0, 3))).tolist(), t]
        units = int(rng.integers(1, 3))
        tails += walk[:-1]
        heads += walk[1:]
        flow += [units] * (len(walk) - 1)
        value += units
    idle = int(rng.integers(0, 2 * n))
    tails += rng.integers(0, n, size=idle).tolist()
    heads += rng.integers(0, n, size=idle).tolist()
    flow = np.array(flow + [0] * idle, dtype=int)
    lower = np.maximum(flow - rng.integers(0, 2, flow.size), 0)
    upper = flow + rng.integers(0, 3, flow.size)
    if rng.random() < 0.5:
        value += int(rng.integers(-2, 3))
        redraw = rng.random(flow.size) < 0.2
        lower[redraw] = rng.integers(0, upper[redraw] + 1)
    return n, s, t, tails, heads, lower.tolist(), upper.tolist(), value


def test_feasible_integral_flow_matches_list_reference():
    rng = np.random.default_rng(2019)
    feasible = 0
    for _ in range(2000):
        n, s, t, tails, heads, lower, upper, value = random_bounded_network(rng)
        got = feasible_integral_flow(n, s, t, tails, heads, lower, upper, value)
        want = reference_feasible_flow(
            n, s, t, list(zip(tails, heads, lower, upper)), value
        )
        if want is None:
            assert got is None
        else:
            assert got.tolist() == want
            feasible += 1
    assert feasible >= 2000 // 3


class TestMaxFlowGF:
    def test_integral_input_reproduced(self, rng):
        inst = gen_random(10, 2, 2, [0.5, 0.5], seed=2)
        Q = [0, 4]
        entries = {}
        want = {}
        for j in range(inst.n):
            q = Q[int(rng.integers(2))]
            entries[(q, j)] = 1.0
            want[j] = q
        fa = from_entries(inst.n, entries)
        assign = max_flow_gf(fa, inst, Q)
        assert {j: int(assign[j]) for j in range(inst.n)} == want

    def test_uniform_half_split_forces_one_per_color(self):
        inst = Instance(
            dist=np.zeros((4, 4)), colors=[0, 0, 1, 1], m=2
        )
        Q = [0, 2]
        fa = from_entries(4, {(q, j): 0.5 for q in Q for j in range(4)})
        assign = max_flow_gf(fa, inst, Q)
        for q in Q:
            members = np.flatnonzero(assign == q)
            assert members.size == 2
            assert np.bincount(inst.colors[members], minlength=2).tolist() == [1, 1]

    def test_three_quarter_marginal_rounds_within_window(self, rng):
        # a center with 3.75 expected blue points receives 3 or 4
        inst = Instance(dist=np.zeros((15, 15)), colors=[0] * 15, m=1)
        Q = [0, 1, 2, 3]
        fa = from_entries(15, {(q, j): 0.25 for q in Q for j in range(15)})
        assign = max_flow_gf(fa, inst, Q)
        for q in Q:
            assert int(np.sum(assign == q)) in (3, 4)

    def test_uniform_split_of_38_points_rounds_to_window_counts(self):
        # uniform quarter-split of 15/14/9 colored points over four centers:
        # marginals (3.75, 3.5, 2.25) per color and 9.5 per center
        colors = np.array([0] * 15 + [1] * 14 + [2] * 9)
        inst = Instance(dist=np.zeros((38, 38)), colors=colors, m=3)
        Q = [0, 15, 29, 37]
        fa = from_entries(38, {(q, j): 0.25 for q in Q for j in range(38)})
        assign = max_flow_gf(fa, inst, Q)
        windows = {0: (3, 4), 1: (3, 4), 2: (2, 3)}
        per_color_totals = np.zeros(3, dtype=int)
        for q in Q:
            members = np.flatnonzero(assign == q)
            assert members.size in (9, 10)
            counts = np.bincount(colors[members], minlength=3)
            for h in range(3):
                lo, hi = windows[h]
                assert lo <= counts[h] <= hi
            per_color_totals += counts
        assert per_color_totals.tolist() == [15, 14, 9]

    def test_sandwich_violation_and_cost_on_random_inputs(self, rng):
        for _ in range(200):
            n = int(rng.integers(4, 26))
            m = int(rng.integers(2, 4))
            inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
            nq = int(rng.integers(2, 5))
            Q = sorted(rng.choice(n, size=nq, replace=False).tolist())
            x = random_fractional(rng, inst, Q)
            beta = np.full(m, float(rng.uniform(0.05, 1.0 / m)))
            alpha = np.full(m, float(rng.uniform(1.0 / m, 1.0)))
            gfb = GFBounds(beta=beta, alpha=alpha)

            assign = max_flow_gf(x, inst, Q)
            tot, by_color = x.marginals(inst, Q)
            for t, q in enumerate(Q):
                members = np.flatnonzero(assign == q)
                assert np.floor(tot[t] - 1e-7) <= members.size <= np.ceil(tot[t] + 1e-7)
                counts = np.bincount(inst.colors[members], minlength=m)
                for h in range(m):
                    assert np.floor(by_color[t, h] - 1e-7) <= counts[h]
                    assert counts[h] <= np.ceil(by_color[t, h] + 1e-7)

            # violation transfer: integral violation <= fractional + 2
            rho_frac = fractional_violation(x, inst, Q, gfb)
            rho_int = 0.0
            for q in Q:
                members = np.flatnonzero(assign == q)
                if members.size == 0:
                    continue
                counts = np.bincount(inst.colors[members], minlength=m)
                for h in range(m):
                    rho_int = max(
                        rho_int,
                        beta[h] * members.size - counts[h],
                        counts[h] - alpha[h] * members.size,
                    )
            assert rho_int <= rho_frac + 2.0 + 1e-9

            # cost preservation: stay inside the fractional support
            support = set(map(tuple, x.pairs.tolist()))
            support_cost = max(inst.dist[q, j] for (q, j) in support)
            assigned_cost = max(inst.dist[assign[j], j] for j in range(n))
            assert assigned_cost <= support_cost + 1e-12
            assert all((int(assign[j]), j) in support for j in range(n))


def random_integral(rng, inst, Q):
    """One support center per point, weight 1 or 1 - 1e-8, plus entries of
    1e-10 on other centers, which the snap drops."""
    entries = {}
    for j in range(inst.n):
        main = int(rng.integers(len(Q)))
        entries[(Q[main], j)] = float(rng.choice([1.0, 1.0 - 1e-8]))
        for t in range(len(Q)):
            if t != main and rng.random() < 0.2:
                entries[(Q[t], j)] = 1e-10
    return from_entries(inst.n, entries)


class TestIntegralInput:
    def test_network_returns_the_support(self, rng):
        for n in [2, 3, 5, 9, 17, 40, 120, 400, 2000]:
            m = int(rng.integers(1, min(n, 3) + 1))
            inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
            nq = int(rng.integers(1, min(n, 6) + 1))
            Q = sorted(rng.choice(n, size=nq, replace=False).tolist())
            x = random_integral(rng, inst, Q)
            assert sorted(x.pairs[:, 1].tolist()) == list(range(n))  # one pair a point
            support = np.empty(n, dtype=int)
            support[x.pairs[:, 1]] = x.pairs[:, 0]
            assert np.array_equal(max_flow_gf(x, inst, Q), support)

    # FractionalAssignment rejects rows that do not sum to one, so these
    # single-support inputs reach the network as (colors, weights,
    # marginals), every point paired with center 0.
    @pytest.mark.parametrize(
        "colors, weights, by_color",
        [
            # five points of weight 0.4: window [2, 2], count 5
            ([0] * 5, [0.4] * 5, [2.0]),
            # per-center only: each color window [0, 1] holds its one point,
            # the center window [1, 1] not both
            ([0, 1], [0.5, 0.5], [0.5, 0.5]),
            # per-color only: weights above 1 let the center total 3.0 fit
            # the count 3 while the red marginal 1.0 does not fit 2 red points
            ([0, 0, 1], [0.5, 0.5, 2.0], [1.0, 2.0]),
        ],
    )
    def test_window_break_raises(self, colors, weights, by_color):
        n = len(colors)
        inst = Instance(dist=np.zeros((n, n)), colors=colors, m=len(by_color))
        pairs = np.column_stack((np.zeros(n, dtype=int), np.arange(n)))
        marginals = (np.array([sum(weights)]), np.array([by_color]))
        with pytest.raises(InternalInfeasible, match="rejected a unit-row-sum"):
            _round_by_network(inst, [0], pairs, *marginals)


def loop_marginals(entries, inst, Q):
    """Reference: the marginals one entry at a time, in sorted (center, point) order."""
    qpos = {q: t for t, q in enumerate(Q)}
    tot = np.zeros(len(Q))
    by_color = np.zeros((len(Q), inst.m))
    for (q, j), v in sorted(entries.items()):
        tot[qpos[q]] += v
        by_color[qpos[q], inst.colors[j]] += v
    return tot, by_color


def random_case(rng):
    n = int(rng.integers(1, 60))
    m = int(rng.integers(1, min(n, 3) + 1))
    inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
    Q = rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False).tolist()
    return inst, Q, random_fractional(rng, inst, Q)


def test_marginals_equal_sorted_entry_loop(rng):
    # stored and summed in sorted order whatever the order given
    for _ in range(200):
        inst, Q, x = random_case(rng)
        items = list(zip(map(tuple, x.pairs.tolist()), x.values.tolist()))
        rng.shuffle(items)
        y = from_entries(inst.n, dict(items))
        assert y.pairs.tolist() == sorted(map(list, dict(items)))
        assert y.values.tolist() == [v for _, v in sorted(items)]
        tot, by_color = y.marginals(inst, Q)
        want = loop_marginals(dict(items), inst, Q)
        assert tot.tobytes() == want[0].tobytes() and by_color.tobytes() == want[1].tobytes()


def test_permuted_input_gives_identical_assignment_and_rounding(rng):
    for _ in range(200):
        inst, Q, x = random_case(rng)
        perm = rng.permutation(x.values.size)
        y = FractionalAssignment(n=inst.n, pairs=x.pairs[perm], values=x.values[perm])
        assert y.pairs.dtype == x.pairs.dtype and y.pairs.tobytes() == x.pairs.tobytes()
        assert y.values.tobytes() == x.values.tobytes()
        for got, want in zip(y.marginals(inst, Q), x.marginals(inst, Q)):
            assert got.tobytes() == want.tobytes()
        assert max_flow_gf(y, inst, Q).tobytes() == max_flow_gf(x, inst, Q).tobytes()


def test_run_experiment_rounds_only_where_the_start_does_not_clear(monkeypatch):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return max_flow_gf(*args)

    monkeypatch.setattr(solvers, "max_flow_gf", counted)

    # every search's nearest-center start clears, so none builds the network
    inst = gen_random(300, 2, 2, [0.5, 0.5], seed=0)
    harness.run_experiment(inst, ExperimentConfig(k_values=(4,), delta=0.5))
    assert calls == 0

    adult = harness.load_instance(str(resources.files("fairkc") / "data" / "adult_mini.csv"))
    harness.run_experiment(adult, ExperimentConfig(k_values=(4,), delta=0.2, theta=0.8))
    assert calls > 0


def test_rounding_stays_in_support_and_windows():
    """max_flow_gf on random unit-row-sum inputs, fractional and near-integral."""
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 40),
        m=st.integers(1, 3),
        nq=st.integers(1, 5),
        spill=st.sampled_from([None, 1e-12, 1e-8, 1e-3]),
    )
    def check(seed, n, m, nq, spill):
        rng = np.random.default_rng(seed)
        m = min(m, n)
        inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=seed)
        Q = sorted(rng.choice(n, size=min(nq, n), replace=False).tolist())
        entries = {}
        for j in range(n):
            if spill is None:  # spread over a random subset of Q
                deg = int(rng.integers(1, len(Q) + 1))
                chosen = rng.choice(len(Q), size=deg, replace=False)
                w = rng.random(deg) + 0.05
                w /= w.sum()
            else:  # one main center, a little spilled onto the others
                chosen = rng.permutation(len(Q))
                w = np.full(len(Q), spill)
                w[0] = 1.0 - spill * (len(Q) - 1)
            for t, wi in zip(chosen, w):
                entries[(Q[t], j)] = float(wi)
        x = from_entries(n, entries)

        assign = max_flow_gf(x, inst, Q)
        seen.add(np.bincount(x.pairs[:, 1], minlength=n).max() == 1)
        for j in range(n):
            assert entries.get((int(assign[j]), j), 0.0) > FractionalAssignment.SNAP
        tot, by_color = x.marginals(inst, Q)
        for t, q in enumerate(Q):
            members = np.flatnonzero(assign == q)
            assert np.floor(tot[t] - 1e-7) <= members.size <= np.ceil(tot[t] + 1e-7)
            counts = np.bincount(inst.colors[members], minlength=m)
            for h in range(m):
                assert np.floor(by_color[t, h] - 1e-7) <= counts[h]
                assert counts[h] <= np.ceil(by_color[t, h] + 1e-7)

    check()
    assert seen == {True, False}


def pinned_rounding_inputs():
    """400 seeded network inputs, most of their points split."""
    rng = np.random.default_rng(20191209)
    for _ in range(400):
        n = int(rng.integers(6, 61))
        m = int(rng.integers(2, 5))
        inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
        Q = sorted(rng.choice(n, size=int(rng.integers(2, 7)), replace=False).tolist())
        x = random_fractional(rng, inst, Q)
        yield inst, Q, x.pairs, *x.marginals(inst, Q)


# sha256 over the `_round_by_network` assignments of `pinned_rounding_inputs()`:
# a faster max-flow must find the same augmenting paths, hence these bytes
ROUNDING_SHA256 = "bc13c3dd41233087e650d44fd66803ee894b63314a2dcfb47217e4e8da542108"


def test_round_by_network_outputs_are_pinned():
    digest = hashlib.sha256()
    for inst, Q, *parts in pinned_rounding_inputs():
        digest.update(_round_by_network(inst, Q, *parts).astype("<i8").tobytes())
    assert digest.hexdigest() == ROUNDING_SHA256
