"""Split one cluster among a chosen subset of its points.

Each color is dealt out in floor/ceiling shares of its fair quota while a
rotating start pointer spreads the ceiling surplus across the sub-centers,
so per-center totals also stay within one of each other and every
sub-center receives at least one point.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .core import FairKCError, Instance


class InvalidSubset(FairKCError):
    """Q must be a nonempty subset of the cluster, no larger than it."""


def divide(
    inst: Instance, cluster: Sequence[int], center: int, Q: Sequence[int]
) -> dict:
    """Assign every cluster point to one of the sub-centers Q.

    Q keeps its given order; position 0 is where the rotating deal begins.
    With a single sub-center the whole cluster goes to it unchanged.  The
    anchor center may sit outside the cluster (it can happen after LP
    rounding reassigns the center point elsewhere); every other member of Q
    must belong to the cluster.  An id that is not an integer is a TypeError.
    """
    members = [operator.index(p) for p in cluster]
    subs = [operator.index(p) for p in Q]
    if not members:
        raise InvalidSubset("cluster is empty")
    if not subs or len(set(subs)) != len(subs):
        raise InvalidSubset("Q must be nonempty without duplicates")
    allowed = set(members) | {operator.index(center)}
    stray = set(subs) - allowed
    if stray:
        raise InvalidSubset(f"sub-centers {sorted(stray)} outside the cluster")
    if len(subs) > len(members):
        raise InvalidSubset("more sub-centers than cluster points")

    if len(subs) == 1:
        return {p: subs[0] for p in members}

    nq = len(subs)
    by_color = {}
    for p in sorted(members):
        by_color.setdefault(int(inst.colors[p]), []).append(p)

    assign = {}
    start = 0  # where this color's deal begins; it moves past each surplus
    for h in range(inst.m):
        pts = by_color.get(h, [])
        share, surplus = divmod(len(pts), nq)
        cursor = 0
        for i in range(nq):  # the first `surplus` sub-centers take one more
            take = share + (i < surplus)
            for p in pts[cursor : cursor + take]:
                assign[p] = subs[(start + i) % nq]
            cursor += take
        start = (start + surplus) % nq
    return assign
