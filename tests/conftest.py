"""Shared helpers for building random instances, bounds, solutions and LPs."""

import numpy as np
import pytest

from fairkc.core import DSBounds, FractionalAssignment, GFBounds, Instance, Solution
from fairkc.instances import gen_random
from fairkc.lp import SparseRows, dead_center_radius


def random_instance(rng, n=None, m=None, dim=2):
    """Euclidean instance with near-even color proportions."""
    if n is None:
        n = int(rng.integers(6, 30))
    if m is None:
        m = int(rng.integers(2, 4))
    props = np.full(m, 1.0 / m)
    return gen_random(n, m, dim, props, seed=int(rng.integers(2**31)))


def wide_bounds(inst, delta=0.5):
    """GF bounds centered on the global proportions with generous slack."""
    r = inst.color_counts() / inst.n
    beta = np.maximum(1e-6, (1.0 - delta) * r)
    alpha = np.minimum(1.0, (1.0 + delta) * r)
    return GFBounds(beta=beta, alpha=alpha)


def exact_cluster(rng, size, m, beta, alpha):
    """Color counts of a cluster satisfying the bounds exactly."""
    for _ in range(200):
        counts = rng.integers(0, size + 1, size=m)
        if counts.sum() != size or np.any(counts == 0):
            continue
        if np.all(beta * size <= counts) and np.all(counts <= alpha * size):
            return counts
    return None


def solution_from_labels(inst, centers, labels):
    """Assignment from cluster labels (index into centers)."""
    centers = [int(c) for c in centers]
    assign = np.asarray([centers[t] for t in labels], dtype=int)
    return Solution(centers=tuple(centers), assign=assign)


def from_entries(n, entries):
    """FractionalAssignment of a {(center, point): value} dict, in the dict's order."""
    pairs = np.array(list(entries), dtype=np.intp).reshape(-1, 2)
    values = np.array(list(entries.values()), dtype=float)
    return FractionalAssignment(n=n, pairs=pairs, values=values)


def sparse_rows(A):
    """SparseRows of the nonzero entries of a 2-d array (NaN counts as nonzero)."""
    A = np.asarray(A, dtype=np.float64)
    rows, cols = A.nonzero()
    return SparseRows(rows, cols, A[rows, cols], A.shape)


def dense(rows):
    """The 2-d array a SparseRows holds."""
    out = np.zeros(rows.shape)
    out[rows.term_rows, rows.indices] = rows.data
    return out


def dead_centers_reject(dist_S, colors, R, gfb):
    """The dead-center screen's verdict at R, as the radius search reads it."""
    return dead_center_radius(dist_S, colors, gfb) > R


def write_far_apart_csv(path, n=1100):
    """A CSV of n rows whose one feature lies near 1e200, so every distance
    between two rows squares past the float range."""
    path.write_text("f0,color\n" + "".join(
        f"{(1 + i / n) * 1e200!r},{'ab'[i % 2]}\n" for i in range(n)
    ))
    return str(path)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
