import hashlib
from collections import deque
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_entries
from fairkc import flow, harness
from fairkc.core import ExperimentConfig, FractionalAssignment, GFBounds, Instance
from fairkc.flow import (
    Arc,
    BoundedFlowNetwork,
    InternalInfeasible,
    _Residual,
    _forced_assignment,
    _round_by_network,
    feasible_integral_flow,
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
        net = BoundedFlowNetwork(
            num_nodes=2, source=0, sink=1, arcs=(Arc(0, 1, 0, 3),)
        )
        assert feasible_integral_flow(net, 3) == [3]

    def test_forced_lower_bound_conflicts_with_requirement(self):
        net = BoundedFlowNetwork(
            num_nodes=2, source=0, sink=1, arcs=(Arc(0, 1, 2, 2),)
        )
        assert feasible_integral_flow(net, 1) is None

    def test_flow_conservation_and_bounds_exact(self, rng):
        for _ in range(50):
            n_mid = int(rng.integers(1, 5))
            arcs = []
            for t in range(n_mid):
                hi = int(rng.integers(1, 5))
                lo = int(rng.integers(0, hi + 1))
                arcs.append(Arc(0, 2 + t, lo, hi))
                arcs.append(Arc(2 + t, 1, lo, hi))
            net = BoundedFlowNetwork(
                num_nodes=2 + n_mid, source=0, sink=1, arcs=tuple(arcs)
            )
            for need in range(0, 2 * n_mid + 1):
                flows = feasible_integral_flow(net, need)
                if flows is None:
                    continue
                for arc, f in zip(arcs, flows):
                    assert arc.lower <= f <= arc.upper
                    assert isinstance(f, int)
                # conservation at middle nodes and exact value at source
                out0 = sum(f for a, f in zip(arcs, flows) if a.tail == 0)
                assert out0 == need
                for t in range(n_mid):
                    innode = sum(f for a, f in zip(arcs, flows) if a.head == 2 + t)
                    outnode = sum(f for a, f in zip(arcs, flows) if a.tail == 2 + t)
                    assert innode == outnode

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Arc(0, 1, 3, 2)

    def test_numpy_ints_accepted_and_floats_rejected(self):
        arc = Arc(np.int64(0), np.int32(1), np.int64(0), np.int64(2))
        assert all(type(v) is int for v in (arc.tail, arc.head, arc.lower, arc.upper))
        with pytest.raises(TypeError):
            Arc(0, 1, 0.5, 2.5)  # used to give the flow [1.0] for value 1

    def test_negative_source_rejected(self):
        # -1 used to wrap round to the sink and report [0] for value 1
        with pytest.raises(ValueError, match="out of range"):
            BoundedFlowNetwork(num_nodes=2, source=-1, sink=1, arcs=(Arc(0, 1, 0, 3),))

    def test_source_equal_to_sink_rejected(self):
        # used to report [0] for a required value of 2
        with pytest.raises(ValueError, match="must differ"):
            BoundedFlowNetwork(num_nodes=2, source=1, sink=1, arcs=(Arc(0, 1, 0, 3),))

    def test_source_past_last_node_rejected(self):
        # used to raise a bare IndexError in feasible_integral_flow
        with pytest.raises(ValueError, match="out of range"):
            BoundedFlowNetwork(num_nodes=2, source=5, sink=1, arcs=(Arc(0, 1, 0, 3),))


class EdmondsKarp(_Residual):
    """Reference: the breadth-first Edmonds-Karp loop that `_Residual.max_flow`
    must match path for path."""

    def max_flow(self, s, t):
        """Edmonds-Karp: shortest augmenting paths via BFS."""
        total = 0
        to, cap, adj = self.to, self.cap, self.adj
        while True:
            parent_arc = {s: -1}
            queue = deque([s])
            while queue and t not in parent_arc:
                u = queue.popleft()
                for e in adj[u]:
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


def test_max_flow_matches_edmonds_karp_on_random_networks():
    # 2-14 nodes; arcs drawn with replacement give parallel and antiparallel
    # pairs, cycles and self-loops; about a fifth of the capacities are zero
    rng = np.random.default_rng(1970)
    for _ in range(3000):
        n = int(rng.integers(2, 15))
        s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
        ends = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2)).tolist()
        caps = np.where(rng.random(len(ends)) < 0.2, 0, rng.integers(1, 5, len(ends)))
        nets = _Residual(n), EdmondsKarp(n)
        for res in nets:
            for (u, v), c in zip(ends, caps.tolist()):
                res.add(u, v, c)
            res.freeze()
        got, want = (res.max_flow(s, t) for res in nets)
        assert got == want
        assert nets[0].cap == nets[1].cap


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


class TestIntegralEarlyReturn:
    def test_early_return_equals_network(self, rng):
        for n in [2, 3, 5, 9, 17, 40, 120, 400, 2000]:
            m = int(rng.integers(1, min(n, 3) + 1))
            inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
            nq = int(rng.integers(1, min(n, 6) + 1))
            Q = sorted(rng.choice(n, size=nq, replace=False).tolist())
            x = random_integral(rng, inst, Q)
            assert sorted(x.pairs[:, 1].tolist()) == list(range(n))  # one pair a point
            parts = (x.pairs, *x.marginals(inst, Q))
            forced = _forced_assignment(inst, Q, *parts)
            assert np.array_equal(forced, _round_by_network(inst, Q, *parts))
            assert np.array_equal(forced, max_flow_gf(x, inst, Q))

    # FractionalAssignment rejects rows that do not sum to one, so these
    # single-support inputs reach both paths as (colors, weights, marginals),
    # every point paired with center 0.
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
    def test_window_break_raises_on_both_paths(self, colors, weights, by_color):
        n = len(colors)
        inst = Instance(dist=np.zeros((n, n)), colors=colors, m=len(by_color))
        pairs = np.column_stack((np.zeros(n, dtype=int), np.arange(n)))
        parts = (pairs, np.array([sum(weights)]), np.array([by_color]))
        for path in (_forced_assignment, _round_by_network):
            with pytest.raises(InternalInfeasible, match="rejected a unit-row-sum"):
                path(inst, [0], *parts)


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


def test_run_experiment_exercises_both_rounding_paths(monkeypatch):
    calls = {"forced": 0, "network": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(flow, "_forced_assignment", counted("forced", flow._forced_assignment))
    monkeypatch.setattr(flow, "_round_by_network", counted("network", flow._round_by_network))

    inst = gen_random(300, 2, 2, [0.5, 0.5], seed=0)
    harness.run_experiment(inst, ExperimentConfig(k_values=(4,), delta=0.5))
    assert calls["forced"] > 0 and calls["network"] == 0

    calls.update(forced=0, network=0)
    adult = harness.load_instance(str(resources.files("fairkc") / "data" / "adult_mini.csv"))
    harness.run_experiment(adult, ExperimentConfig(k_values=(4,), delta=0.2, theta=0.8))
    assert calls["network"] > 0 and calls["forced"] == 0


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
