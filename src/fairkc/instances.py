"""Generators for adversarial instance families and random test instances."""

from __future__ import annotations

from math import gcd

import numpy as np

from .core import FairKCError, Instance

PATTERNS = ("alternating", "odd-mixed-last", "ds-variant")


class PatternArity(FairKCError):
    """The color pattern is incompatible with the community size."""


def gen_l_community(l: int, size: int, R: float, pattern: str) -> Instance:
    """l equal communities of coinciding points, pairwise separated by R.

    Patterns: 'alternating' colors whole communities 0/1 by parity;
    'odd-mixed-last' does the same but splits the last community half/half;
    'ds-variant' makes the first l-1 communities color 0 and splits the last
    between colors 1 and 2.  Mixed last communities need an even size.
    """
    if l < 2:
        raise ValueError("need at least two communities")
    if size < 1:
        raise ValueError("communities need at least one point")
    if R <= 0:
        raise ValueError("separation R must be positive")
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")

    n = l * size
    comm = np.arange(n) // size
    dist = np.where(comm[:, None] != comm[None, :], float(R), 0.0)

    colors = np.zeros(n, dtype=int)
    if pattern == "alternating":
        m = 2
        colors = comm % 2
    elif pattern == "odd-mixed-last":
        if size % 2:
            raise PatternArity("mixed last community needs an even size")
        m = 2
        colors = comm % 2
        last = np.arange((l - 1) * size, n)
        colors[last[: size // 2]] = 0
        colors[last[size // 2 :]] = 1
    else:  # ds-variant
        if size % 2:
            raise PatternArity("mixed last community needs an even size")
        m = 3
        last = np.arange((l - 1) * size, n)
        colors[last[: size // 2]] = 1
        colors[last[size // 2 :]] = 2

    inst = Instance(dist=dist, colors=colors, m=m)
    inst.check_triangle()
    return inst


def gen_proportional_gadget(
    k: int, group_size: int, R: float, alpha_ap: float
) -> Instance:
    """Two color masses, each spread over hub-and-spoke locations.

    floor(k/2) blue and ceil(k/2) red locations hold n/2 points per color;
    location 0 of each color is a hub at distance r = R/(4 alpha_ap) from
    its siblings, so any two same-color points sit within 2r < R/alpha_ap.
    Cross-color distance is R.
    """
    if k < 5:
        raise ValueError("gadget needs k >= 5")
    if group_size < 1:
        raise ValueError("group_size must be positive")
    if R <= 0:
        raise ValueError("R must be positive")
    if alpha_ap < 0.25:
        raise ValueError("alpha_ap below 1/4 breaks the triangle inequality")

    r = R / (4.0 * alpha_ap)
    locs_blue = k // 2
    locs_red = k - locs_blue
    half = group_size * locs_blue * locs_red // gcd(locs_blue, locs_red)
    per_blue = half // locs_blue
    per_red = half // locs_red

    loc = []  # (color, location, is_hub)
    for b in range(locs_blue):
        loc.extend([(0, b, b == 0)] * per_blue)
    for c in range(locs_red):
        loc.extend([(1, c, c == 0)] * per_red)
    n = len(loc)

    dist = np.empty((n, n))
    for i in range(n):
        ci, li, hi_ = loc[i]
        for j in range(n):
            cj, lj, hj = loc[j]
            if ci != cj:
                d = R
            elif li == lj:
                d = 0.0
            elif hi_ or hj:
                d = r
            else:
                d = 2.0 * r
            dist[i, j] = d

    colors = np.asarray([c for c, _, _ in loc], dtype=int)
    inst = Instance(dist=dist, colors=colors, m=2)
    inst.check_triangle()
    return inst


def gen_random(
    n: int, m: int, dim: int, proportions, seed: int
) -> Instance:
    """Uniform points in the unit cube with colors matching proportions.

    Color counts follow the largest-remainder rounding of n * proportions
    (every color keeps at least one point); the color sequence is shuffled.
    Deterministic per seed.
    """
    if n < m:
        raise ValueError("need at least one point per color")
    props = np.asarray(proportions, dtype=float)
    if props.shape != (m,) or not np.all(props >= 0):  # NaN fails too
        raise ValueError("proportions must be m nonnegative reals")
    if abs(props.sum() - 1.0) > 1e-9:
        raise ValueError("proportions must sum to 1")

    rng = np.random.default_rng(seed)
    pts = rng.random((n, dim))

    raw = n * props
    counts = np.floor(raw).astype(int)
    remainder = raw - counts
    for _ in range(n - int(counts.sum())):
        h = int(np.argmax(remainder))
        counts[h] += 1
        remainder[h] = -1.0
    for h in range(m):  # instance validation requires every color present
        if counts[h] == 0:
            donor = int(np.argmax(counts))
            counts[donor] -= 1
            counts[h] += 1

    colors = np.repeat(np.arange(m), counts)
    rng.shuffle(colors)

    return Instance.from_points(pts, colors, m)
