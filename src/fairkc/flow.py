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

The max-flow augments along exactly the paths of a breadth-first
Edmonds-Karp search over the frozen adjacency lists, in the same order, so
every flow, assignment and report keeps its bytes; it finds them with
Dinic's level graphs and current-arc pointers instead of one search from
the source per path.  Within a phase of Dinic's algorithm a level arc only
loses capacity, so an arc that is saturated or leads to a dead end stays
useless until the next phase, and the first path a depth-first search finds
in list order is the least shortest path, the one breadth-first search
returns.  `_Residual.max_flow` gives the argument in full.
"""

from __future__ import annotations

import operator
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
        for name in ("tail", "head", "lower", "upper"):  # ints only, numpy's too
            value = getattr(self, name)
            if type(value) is not int:
                object.__setattr__(self, name, operator.index(value))
        if not 0 <= self.lower <= self.upper:
            raise ValueError("need 0 <= lower <= upper on every arc")


@dataclass(frozen=True)
class BoundedFlowNetwork:
    num_nodes: int
    source: int
    sink: int
    arcs: tuple

    def __post_init__(self):
        if not (0 <= self.source < self.num_nodes and 0 <= self.sink < self.num_nodes):
            raise ValueError("source or sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        for a in self.arcs:
            if not (0 <= a.tail < self.num_nodes and 0 <= a.head < self.num_nodes):
                raise ValueError("arc endpoint out of range")


class _Residual:
    """Forward/backward arc pairs (arc e's reverse is e ^ 1).

    `freeze` sorts each node's arcs by (head, arc id) once; that order
    decides which augmenting path `max_flow` takes among equally short ones.
    """

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
        """Maximum s->t flow along Edmonds-Karp's augmenting paths, found
        with Dinic's level graphs and current-arc pointers (Dinitz 1970).

        Edmonds-Karp augments along the path of a FIFO breadth-first search
        that scans each node's frozen arc list in order and keeps a node's
        first discoverer as its parent.  Compare two paths by the positions
        of their arcs in each node's list, first arc first.  By induction on
        the level, that search discovers the nodes of one level in the order
        of their least shortest paths from s, and its parent arcs trace
        exactly those paths; so it returns the least shortest s->t path.

        A phase here runs that breadth-first search once, stopping when t is
        reached, and keeps each node's level.  A level arc has capacity left
        and goes from level i to level i + 1.  Augmenting lowers the capacity
        of level arcs and raises that of their reverses, which point one
        level down, so within a phase a level arc never regains capacity, no
        other arc becomes one, and while the s->t distance stays the same
        every shortest residual path uses level arcs only.  A depth-first
        search from s that follows level arcs only, in list order, therefore
        meets the least shortest path first.  Each node's current arc moves
        past an arc only when the arc is not a level arc, is saturated, or
        leads to a node from which no level path reaches t; none of these
        changes back within the phase, so skipping such arcs drops no path.
        After each augmentation the search starts again at s; when it finds
        no path the distance has grown, and a new phase begins.
        """
        total = 0
        to, cap, adj = self.to, self.cap, self.adj
        while True:
            level = [-1] * len(adj)
            level[s] = 0
            queue = deque([s])
            while queue and level[t] < 0:
                u = queue.popleft()
                up = level[u] + 1
                for e in adj[u]:
                    v = to[e]
                    if cap[e] > 0 and level[v] < 0:
                        level[v] = up
                        queue.append(v)
            if level[t] < 0:
                return total
            ptr = [0] * len(adj)  # current arc of each node
            path = []  # arcs from s to u
            u = s
            while True:
                if u == t:
                    bottleneck = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= bottleneck
                        cap[e ^ 1] += bottleneck
                    total += bottleneck
                    path.clear()
                    u = s
                arcs = adj[u]
                i, end, up = ptr[u], len(arcs), level[u] + 1
                while i < end and not (cap[arcs[i]] > 0 and level[to[arcs[i]]] == up):
                    i += 1
                ptr[u] = i
                if i < end:
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif u == s:
                    break
                else:  # dead end: retreat and skip the arc that led here
                    u = to[path.pop() ^ 1]
                    ptr[u] += 1


def feasible_integral_flow(
    net: BoundedFlowNetwork, required_value: int
) -> Optional[list]:
    """Integral arc flows meeting all bounds with exact s->t value, or None.

    Uses the textbook transform: strip lower bounds into node excesses, close
    the circulation with a fixed-value sink->source arc, then run max-flow
    from a super source to a super sink and demand saturation.  The flows
    returned are those of Edmonds-Karp over the frozen residual network
    (see `_Residual.max_flow`).
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
