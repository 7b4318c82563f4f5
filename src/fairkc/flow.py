"""Max-flow with arc lower bounds and the fair-assignment rounding step.

Rounding turns a fractional assignment with unit row sums into an integral
one whose per-center totals and per-(center, color) totals are the floor or
ceiling of the fractional marginals.  Points only ever move along pairs the
fractional solution already used, so the clustering radius cannot grow.
The marginals are `FractionalAssignment.marginals`, summed in its stored
(center, point) order, so the windows do not depend on the order in which
the entries were given.  Every input, an integral one too, goes through the
one bounded-flow network of `_round_by_network`; where each point has a
single support center, that network has exactly one candidate flow, the
support itself.

The network is built straight from arrays: arc i and its reverse are
residual arcs 2i and 2i + 1, and each node's arcs sit in a CSR adjacency
`(start, order)`, sorted by (head, arc id) with one lexsort (`_residual`).
The max-flow augments along exactly the paths of a breadth-first
Edmonds-Karp search over those per-node lists, in the same order, so
every flow, assignment and report keeps its bytes; it finds them with
Dinic's level graphs and current-arc pointers instead of one search from
the source per path.  Within a phase of Dinic's algorithm a level arc only
loses capacity, so an arc that is saturated or leads to a dead end stays
useless until the next phase, and the first path a depth-first search finds
in list order is the least shortest path, the one breadth-first search
returns.  `max_flow` gives the argument in full.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Optional, Sequence

import numpy as np

from .core import FairKCError, FractionalAssignment, Instance, positions_in

MARGINAL_SNAP = 1e-7


class InternalInfeasible(FairKCError):
    """Rounding network was infeasible; indicates a construction bug."""


def _residual(num_nodes, tails, heads, caps):
    """Residual network of arcs i: (tails[i], heads[i]) with capacity caps[i].

    Arc 2i is arc i forward, arc 2i + 1 its reverse with capacity 0, so the
    reverse of arc e is e ^ 1.  Node u's arcs are order[start[u]:start[u + 1]]
    (a CSR adjacency), sorted by (head, arc id); that order decides which
    augmenting path `max_flow` takes among equally short ones.  One lexsort
    by (tail, head), stable and so by arc id within ties, gives exactly that
    per-node order, the one the former add-then-sort builder froze.
    Returned as lists, which `max_flow` walks and updates in place.
    """
    frm = np.column_stack((tails, heads)).ravel()
    to = np.column_stack((heads, tails)).ravel()
    cap = np.column_stack((caps, np.zeros_like(caps))).ravel()
    order = np.lexsort((to, frm))
    start = np.concatenate(([0], np.cumsum(np.bincount(frm, minlength=num_nodes))))
    return to.tolist(), cap.tolist(), start.tolist(), order.tolist()


def max_flow(to, cap, start, order, s, t):
    """Maximum s->t flow along Edmonds-Karp's augmenting paths, found with
    Dinic's level graphs and current-arc pointers (Dinitz 1970); `cap` is
    left holding the residual capacities.

    Edmonds-Karp augments along the path of a FIFO breadth-first search
    that scans each node's arcs in their CSR order (see `_residual`) and
    keeps a node's first discoverer as its parent.  Compare two paths by the
    positions of their arcs in each node's list, first arc first.  By
    induction on the level, that search discovers the nodes of one level in
    the order of their least shortest paths from s, and its parent arcs
    trace exactly those paths; so it returns the least shortest s->t path.

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
    num_nodes = len(start) - 1
    while True:
        level = [-1] * num_nodes
        level[s] = 0
        queue = deque([s])
        while queue and level[t] < 0:
            u = queue.popleft()
            up = level[u] + 1
            for e in order[start[u]:start[u + 1]]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = up
                    queue.append(v)
        if level[t] < 0:
            return total
        ptr = start[:-1]  # current arc of each node, a position in order
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
            i, end, up = ptr[u], start[u + 1], level[u] + 1
            while i < end and not (cap[order[i]] > 0 and level[to[order[i]]] == up):
                i += 1
            ptr[u] = i
            if i < end:
                path.append(order[i])
                u = to[order[i]]
            elif u == s:
                break
            else:  # dead end: retreat and skip the arc that led here
                u = to[path.pop() ^ 1]
                ptr[u] += 1


def _int_array(values):
    """A 1-D int64 array of integer values (numpy's too); floats are a TypeError."""
    a = np.asarray(values)
    if a.size and a.dtype.kind not in "biu":
        raise TypeError("arc ends and bounds must be integers")
    if a.ndim != 1:
        raise ValueError("arc ends and bounds must be 1-D arrays")
    return a.astype(np.int64)


def feasible_integral_flow(
    num_nodes, source, sink, tails, heads, lower, upper, value
) -> Optional[np.ndarray]:
    """Integral flows on arcs i: tails[i] -> heads[i] with lower[i] <= flow
    <= upper[i], conserved at every node but source and sink, with exact
    source->sink value; None if there are none.

    Uses the textbook transform: strip lower bounds into node excesses, close
    the circulation with a fixed-value sink->source arc, then run max-flow
    from a super source to a super sink and demand saturation.  The super
    arcs follow the given arcs, one per node with nonzero excess in node
    order.  The flows returned are those of Edmonds-Karp over that residual
    network (see `max_flow`), as an int64 array in arc order.
    """
    num_nodes, source, sink, value = map(operator.index, (num_nodes, source, sink, value))
    tails, heads, lower, upper = map(_int_array, (tails, heads, lower, upper))
    if not tails.size == heads.size == lower.size == upper.size:
        raise ValueError("arc arrays must have equal lengths")
    if not (0 <= source < num_nodes and 0 <= sink < num_nodes):
        raise ValueError("source or sink out of range")
    if source == sink:
        raise ValueError("source and sink must differ")
    ends = np.concatenate((tails, heads))
    if np.any((ends < 0) | (ends >= num_nodes)):
        raise ValueError("arc endpoint out of range")
    if np.any(lower < 0) or np.any(lower > upper):
        raise ValueError("need 0 <= lower <= upper on every arc")

    excess = np.zeros(num_nodes, dtype=np.int64)
    np.add.at(excess, heads, lower)
    np.subtract.at(excess, tails, lower)
    # sink -> source arc with lower = upper = value pins the flow value
    excess[source] += value
    excess[sink] -= value

    ss, tt = num_nodes, num_nodes + 1
    w = np.flatnonzero(excess)
    surplus = excess[w] > 0
    to, cap, start, order = _residual(
        num_nodes + 2,
        np.concatenate((tails, np.where(surplus, ss, w))),
        np.concatenate((heads, np.where(surplus, w, tt))),
        np.concatenate((upper - lower, np.abs(excess[w]))),
    )
    if max_flow(to, cap, start, order, ss, tt) < int(excess[w[surplus]].sum()):
        return None
    return upper - np.array(cap[0 : 2 * tails.size : 2], dtype=np.int64)


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
    stored pair of x, whose values all exceed its 1e-7 snap.  An integral
    input, one support pair a point, is returned as it is, since it is the
    network's only candidate flow.

    Raises InternalInfeasible if the rounding network has no feasible flow,
    which cannot happen for a unit-row-sum input.
    """
    Q = [int(q) for q in Q]
    return _round_by_network(inst, Q, x.pairs, *x.marginals(inst, Q))


def _round_by_network(inst, Q, pairs, tot, by_color) -> np.ndarray:
    """Round through the bounded-flow network over the support pairs."""
    n, nq = inst.n, len(Q)
    # Nodes: s = 0, t = 1, point j = 2 + j, then one per used (center, color)
    # in (center, color) order, then one per center in Q order.
    used = by_color > 0.0
    pair_node = 2 + n + np.cumsum(used.ravel()).reshape(used.shape) - 1
    center_node = 2 + n + int(used.sum()) + np.arange(nq)
    pq, ph = np.nonzero(used)
    q, j = pairs[np.lexsort(pairs.T)].T  # by point, then center
    qt = positions_in(Q, q)

    # Arcs: s -> point, point -> (center, color), (center, color) -> center,
    # center -> t; the last two carry the floor/ceiling windows.
    pair_lo, pair_hi = _int_window(by_color[used])
    center_lo, center_hi = _int_window(tot)
    unit = n + j.size  # the s -> point and point -> pair arcs, bounds [0, 1]
    tails = np.concatenate(
        (np.zeros(n, dtype=int), 2 + j, pair_node[pq, ph], center_node)
    )
    heads = np.concatenate(
        (2 + np.arange(n), pair_node[qt, inst.colors[j]], center_node[pq],
         np.ones(nq, dtype=int))
    )
    lower = np.concatenate((np.zeros(unit, dtype=int), pair_lo, center_lo))
    upper = np.concatenate((np.ones(unit, dtype=int), pair_hi, center_hi))
    flows = feasible_integral_flow(center_node[-1] + 1, 0, 1, tails, heads, lower, upper, n)
    if flows is None:
        raise InternalInfeasible("rounding network rejected a unit-row-sum input")

    assign = np.full(n, -1, dtype=int)
    chosen = flows[n:unit] == 1
    assign[j[chosen]] = q[chosen]
    if np.any(assign < 0):
        raise InternalInfeasible("a point received no integral assignment")
    return assign
