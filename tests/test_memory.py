"""Memory gate: the n-by-n distance matrix is the largest allocation of a run.

Every pass over that matrix (building it, checking its symmetry, the
neighborhood radii of the audits) works a block of rows at a time, and the
assignment LP stores only its nonzero terms.  So the traced peak of one
`uniform-2k`-shaped run stays within three copies of the matrix; a single
full-size temporary of the matrix, or a dense point LP, breaks it.
"""

import tracemalloc

from fairkc.audit import audit_all
from fairkc.core import ExperimentConfig
from fairkc.instances import gen_random
from fairkc.solvers import assignment_gf, gonzalez


def test_uniform_2k_peak_is_within_three_distance_matrices():
    tracemalloc.start()
    try:
        inst = gen_random(2000, 3, 4, [0.5, 0.3, 0.2], seed=0)
        k = 12
        gfb = ExperimentConfig((k,), delta=0.5).gf_bounds(inst)
        # the radius search, then the point LP at the radius found: its build,
        # nearest start and solve, and the rounding
        sol, _ = assignment_gf(inst, gonzalez(inst, k).centers, gfb)
        audit_all(inst, sol, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.dist.nbytes == 32_000_000
    assert peak < 3 * inst.dist.nbytes, f"traced peak {peak / 1e6:.1f} MB"
