from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkc import flow, harness
from fairkc.core import ExperimentConfig, FractionalAssignment, GFBounds, Instance
from fairkc.flow import (
    SUPPORT_EPS,
    Arc,
    BoundedFlowNetwork,
    InternalInfeasible,
    _forced_assignment,
    _round_by_network,
    _support,
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
    return FractionalAssignment(n=inst.n, entries=entries)


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
        fa = FractionalAssignment(n=inst.n, entries=entries)
        assign = max_flow_gf(fa, inst, Q)
        assert {j: int(assign[j]) for j in range(inst.n)} == want

    def test_uniform_half_split_forces_one_per_color(self):
        inst = Instance(
            dist=np.zeros((4, 4)), colors=[0, 0, 1, 1], m=2
        )
        Q = [0, 2]
        fa = FractionalAssignment(
            n=4, entries={(q, j): 0.5 for q in Q for j in range(4)}
        )
        assign = max_flow_gf(fa, inst, Q)
        for q in Q:
            members = np.flatnonzero(assign == q)
            assert members.size == 2
            assert np.bincount(inst.colors[members], minlength=2).tolist() == [1, 1]

    def test_three_quarter_marginal_rounds_within_window(self, rng):
        # a center with 3.75 expected blue points receives 3 or 4
        inst = Instance(dist=np.zeros((15, 15)), colors=[0] * 15, m=1)
        Q = [0, 1, 2, 3]
        fa = FractionalAssignment(
            n=15, entries={(q, j): 0.25 for q in Q for j in range(15)}
        )
        assign = max_flow_gf(fa, inst, Q)
        for q in Q:
            assert int(np.sum(assign == q)) in (3, 4)

    def test_uniform_split_of_38_points_rounds_to_window_counts(self):
        # uniform quarter-split of 15/14/9 colored points over four centers:
        # marginals (3.75, 3.5, 2.25) per color and 9.5 per center
        colors = np.array([0] * 15 + [1] * 14 + [2] * 9)
        inst = Instance(dist=np.zeros((38, 38)), colors=colors, m=3)
        Q = [0, 15, 29, 37]
        fa = FractionalAssignment(
            n=38, entries={(q, j): 0.25 for q in Q for j in range(38)}
        )
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
            support_cost = max(
                inst.dist[q, j] for (q, j) in x.entries
            )
            assigned_cost = max(inst.dist[assign[j], j] for j in range(n))
            assert assigned_cost <= support_cost + 1e-12
            assert all((int(assign[j]), j) in x.entries for j in range(n))


def random_integral(rng, inst, Q):
    """One support center per point, weight 1 or 1 - 1e-8, plus entries below
    SUPPORT_EPS on other centers that the rounding ignores."""
    entries = {}
    for j in range(inst.n):
        main = int(rng.integers(len(Q)))
        entries[(Q[main], j)] = float(rng.choice([1.0, 1.0 - 1e-8]))
        for t in range(len(Q)):
            if t != main and rng.random() < 0.2:
                entries[(Q[t], j)] = 1e-10
    return FractionalAssignment(n=inst.n, entries=entries)


class TestIntegralEarlyReturn:
    def test_early_return_equals_network(self, rng):
        for n in [2, 3, 5, 9, 17, 40, 120, 400, 2000]:
            m = int(rng.integers(1, min(n, 3) + 1))
            inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
            nq = int(rng.integers(1, min(n, 6) + 1))
            Q = sorted(rng.choice(n, size=nq, replace=False).tolist())
            x = random_integral(rng, inst, Q)
            parts = _support(x, inst, Q)
            assert all(len(s) == 1 for s in parts[0])
            forced = _forced_assignment(inst, Q, *parts)
            assert np.array_equal(forced, _round_by_network(inst, Q, *parts))
            assert np.array_equal(forced, max_flow_gf(x, inst, Q))

    # FractionalAssignment rejects rows that do not sum to one, so these
    # single-support inputs reach both paths as (colors, weights, marginals).
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
        parts = ([[0]] * n, np.array([sum(weights)]), np.array([by_color]))
        for path in (_forced_assignment, _round_by_network):
            with pytest.raises(InternalInfeasible, match="rejected a unit-row-sum"):
                path(inst, [0], *parts)


def loop_support(x, inst, Q):
    """Reference: the support scan one sorted entry at a time."""
    qpos = {q: t for t, q in enumerate(Q)}
    support = [[] for _ in range(inst.n)]
    tot = np.zeros(len(Q))
    by_color = np.zeros((len(Q), inst.m))
    for (q, j), v in sorted(x.entries.items()):
        if v < SUPPORT_EPS:
            continue
        support[j].append(q)
        tot[qpos[q]] += v
        by_color[qpos[q], inst.colors[j]] += v
    return support, tot, by_color


def test_support_equals_sorted_entry_loop(rng):
    # the marginals are summed in sorted order whatever the dict's order
    for _ in range(200):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(1, min(n, 3) + 1))
        inst = gen_random(n, m, 2, np.full(m, 1.0 / m), seed=int(rng.integers(2**31)))
        Q = rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False).tolist()
        items = list(random_fractional(rng, inst, Q).entries.items())
        rng.shuffle(items)
        x = FractionalAssignment(n=n, entries=dict(items))
        support, tot, by_color = _support(x, inst, Q)
        want = loop_support(x, inst, Q)
        assert support == want[0]
        assert tot.tobytes() == want[1].tobytes() and by_color.tobytes() == want[2].tobytes()


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
        x = FractionalAssignment(n=n, entries=entries)

        assign = max_flow_gf(x, inst, Q)
        seen.add(all(len(s) == 1 for s in _support(x, inst, Q)[0]))
        for j in range(n):
            assert entries.get((int(assign[j]), j), 0.0) >= SUPPORT_EPS
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
