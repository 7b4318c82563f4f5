"""Max-flow with arc lower bounds and the fair-assignment rounding step.

Rounding turns a fractional assignment with unit row sums into an integral
one whose per-center totals and per-(center, color) totals are the floor or
ceiling of the fractional marginals.  Points only ever move along pairs the
fractional solution already used, so the clustering radius cannot grow.
The marginals are `FractionalAssignment.marginals`, summed in its stored
(center, point) order, so the windows do not depend on the order in which
the entries were given.

An input that is already integral, with one support center per point, is
not sent through the network.  There every source-to-point arc must carry
its unit and every point has a single outgoing arc, so the support itself
is the only candidate flow, and it is feasible exactly when its per-center
and per-(center, color) counts lie inside their windows.  Checking those
counts and returning the support therefore gives the network's answer, and
its InternalInfeasible when a window fails, without one augmenting path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import FairKCError, FractionalAssignment, Instance, positions_in

MARGINAL_SNAP = 1e-7


class InternalInfeasible(FairKCError):
    """Rounding network was infeasible; indicates a construction bug."""


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    lower: int
    upper: int

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper:
            raise ValueError("need 0 <= lower <= upper on every arc")


@dataclass(frozen=True)
class BoundedFlowNetwork:
    num_nodes: int
    source: int
    sink: int
    arcs: tuple

    def __post_init__(self):
        for a in self.arcs:
            if not (0 <= a.tail < self.num_nodes and 0 <= a.head < self.num_nodes):
                raise ValueError("arc endpoint out of range")


class _Residual:
    """Forward/backward arc pairs; adjacency kept sorted by head node."""

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


def feasible_integral_flow(
    net: BoundedFlowNetwork, required_value: int
) -> Optional[list]:
    """Integral arc flows meeting all bounds with exact s->t value, or None.

    Uses the textbook transform: strip lower bounds into node excesses, close
    the circulation with a fixed-value sink->source arc, then run max-flow
    from a super source to a super sink and demand saturation.
    """
    n = net.num_nodes
    excess = [0] * n
    res = _Residual(n + 2)
    arc_ids = []
    for a in net.arcs:
        arc_ids.append(res.add(a.tail, a.head, a.upper - a.lower))
        excess[a.head] += a.lower
        excess[a.tail] -= a.lower
    # sink -> source arc with lower = upper = required_value pins the flow value
    excess[net.source] += required_value
    excess[net.sink] -= required_value

    ss, tt = n, n + 1
    demand = 0
    for w in range(n):
        if excess[w] > 0:
            res.add(ss, w, excess[w])
            demand += excess[w]
        elif excess[w] < 0:
            res.add(w, tt, -excess[w])
    res.freeze()
    if res.max_flow(ss, tt) < demand:
        return None
    flows = []
    for a, e in zip(net.arcs, arc_ids):
        flows.append(a.lower + (a.upper - a.lower) - res.cap[e])
    return flows


def _int_window(value):
    """Floor/ceiling window, snapping near-integral marginals first; takes
    a marginal or an array of them and gives int arrays of the same shape."""
    r = np.round(value)  # half to even, as Python's round
    snap = np.abs(value - r) <= MARGINAL_SNAP
    lo = np.where(snap, r, np.floor(value)).astype(int)
    hi = np.where(snap, r, np.ceil(value)).astype(int)
    return lo, hi


def max_flow_gf(
    x: FractionalAssignment, inst: Instance, Q: Sequence[int]
) -> np.ndarray:
    """Round a fractional assignment over centers Q to an integral one.

    The result assigns every point to a center in its fractional support and
    keeps every per-center total and per-(center, color) total inside the
    floor/ceiling window of the fractional marginal.  The support is every
    stored pair of x, whose values all exceed its 1e-7 snap.

    Every row of x sums to 1, so every point has a support pair; with n
    pairs each point has exactly one, the input is already integral, and it
    is returned after a check of the windows, without building the network
    (see the module docstring for why that is exact).

    Raises InternalInfeasible if the rounding network has no feasible flow,
    which cannot happen for a unit-row-sum input.
    """
    Q = [int(q) for q in Q]
    tot, by_color = x.marginals(inst, Q)
    if x.pairs.shape[0] == inst.n:
        return _forced_assignment(inst, Q, x.pairs, tot, by_color)
    return _round_by_network(inst, Q, x.pairs, tot, by_color)


_REJECTED = "rounding network rejected a unit-row-sum input"


def _forced_assignment(inst, Q, pairs, tot, by_color) -> np.ndarray:
    """The only candidate flow of a single-support input, if its counts fit."""
    assign = np.empty(inst.n, dtype=int)
    assign[pairs[:, 1]] = pairs[:, 0]
    count = np.zeros((len(Q), inst.m), dtype=int)
    np.add.at(count, (positions_in(Q, assign), inst.colors), 1)
    for counted, marginal in ((count.sum(axis=1), tot), (count, by_color)):
        lo, hi = _int_window(marginal)
        if np.any(counted < lo) or np.any(counted > hi):
            raise InternalInfeasible(_REJECTED)
    return assign


def _round_by_network(inst, Q, pairs, tot, by_color) -> np.ndarray:
    """Round through the bounded-flow network over the support pairs."""
    n = inst.n
    qpos = {q: t for t, q in enumerate(Q)}

    # Nodes: s, t, one per point, one per used (center, color), one per center.
    s, t = 0, 1
    point_node = lambda j: 2 + j
    pair_node = {}
    nid = 2 + n
    for ti, q in enumerate(Q):
        for h in range(inst.m):
            if by_color[ti, h] > 0.0:
                pair_node[(q, h)] = nid
                nid += 1
    center_node = {}
    for q in Q:
        center_node[q] = nid
        nid += 1

    arcs = []
    assign_arc = {}
    for j in range(n):
        arcs.append(Arc(s, point_node(j), 0, 1))
    colors = inst.colors.tolist()
    for q, j in pairs[np.lexsort(pairs.T)].tolist():  # by point, then center
        assign_arc[(q, j)] = len(arcs)
        arcs.append(Arc(point_node(j), pair_node[(q, colors[j])], 0, 1))
    pair_lo, pair_hi = _int_window(by_color)
    for (q, h), node in pair_node.items():
        lo, hi = int(pair_lo[qpos[q], h]), int(pair_hi[qpos[q], h])
        arcs.append(Arc(node, center_node[q], lo, hi))
    center_lo, center_hi = _int_window(tot)
    for q in Q:
        lo, hi = int(center_lo[qpos[q]]), int(center_hi[qpos[q]])
        arcs.append(Arc(center_node[q], t, lo, hi))

    net = BoundedFlowNetwork(num_nodes=nid, source=s, sink=t, arcs=tuple(arcs))
    flows = feasible_integral_flow(net, n)
    if flows is None:
        raise InternalInfeasible(_REJECTED)

    assign = np.full(n, -1, dtype=int)
    for (q, j), e in assign_arc.items():
        if flows[e] == 1:
            assign[j] = q
    if np.any(assign < 0):
        raise InternalInfeasible("a point received no integral assignment")
    return assign
