"""Memory gate: the n-by-n distance matrix is the largest allocation of a run.

Every pass over that matrix (building it, checking its symmetry, the
neighborhood radii of the audits) works a block of rows at a time, and the
assignment LP stores only its nonzero terms.  So the traced peak of one
`uniform-2k`-shaped run stays within three copies of the matrix; a single
full-size temporary of the matrix, or a dense point LP, breaks it.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import fairkc
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


# ru_maxrss growth, in KiB, across five builds of the uniform-2k instance in a
# fresh process, each freeing the last matrix first, as a repeated set-up does
GROWTH = """
import resource
from fairkc import core
from fairkc.instances import gen_random
if {cpus}:
    core._cpu_count = lambda: {cpus}
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
inst = None
for _ in range(5):
    inst = None
    inst = gen_random(2000, 3, 4, [0.5, 0.3, 0.2], seed=0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def maxrss_growth_kib(cpus):
    src = str(Path(fairkc.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", GROWTH.format(cpus=cpus)], check=True,
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    return int(out.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux")
def test_parallel_build_grows_rss_by_at_most_the_scratch_budget():
    # The build allocates worker scratch in the calling thread: what a worker
    # thread frees stays in that thread's glibc arena.  On a 2-CPU host, a
    # build that allocated scratch in its tasks, one buffer per block, grew
    # 8-13 MiB more than this one; one buffer per worker thread, about 2 MiB.
    budget = 2000 * 2000 * 8 / 4 / 1024  # a quarter of the matrix
    serial = maxrss_growth_kib(1)
    assert maxrss_growth_kib(None) <= serial + budget, f"serial build grew {serial} KiB"
