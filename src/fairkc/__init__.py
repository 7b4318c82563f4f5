"""k-center clustering under group-fairness (GF) and diversity-in-center-
selection (DS) constraints, with post-processing pipelines that satisfy both,
auditors for neighboring fairness notions, adversarial instance generators,
and a desk-scale brute-force oracle."""

from .core import (
    DSBounds,
    ExperimentConfig,
    FairKCError,
    FractionalAssignment,
    GFBounds,
    InfeasibleError,
    Instance,
    Solution,
    cost,
    ds_violation,
    gf_violation,
    pof,
)

__version__ = "0.1.0"

__all__ = [
    "DSBounds",
    "ExperimentConfig",
    "FairKCError",
    "FractionalAssignment",
    "GFBounds",
    "InfeasibleError",
    "Instance",
    "Solution",
    "cost",
    "ds_violation",
    "gf_violation",
    "pof",
    "__version__",
]
