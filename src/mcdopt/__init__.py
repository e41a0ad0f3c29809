"""Budget-limited derivative-free optimization toolkit.

Ships a folding coordinate-descent optimizer, two population baselines
(differential evolution and cooperative co-evolution with delta grouping),
a seeded benchmark suite over the separability/modality axes, and an
experiment harness with deterministic CSV, JSON and SVG reporting.
"""

from . import baselines, benchfns, harness, mcd, svgplot
from .core import (
    Box,
    BudgetedEvaluator,
    BudgetExhausted,
    Candidate,
    InsufficientBudget,
    NonFiniteValue,
    Objective,
    OptimizationError,
    OutOfBox,
    named_stream,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "BudgetedEvaluator",
    "BudgetExhausted",
    "Candidate",
    "InsufficientBudget",
    "NonFiniteValue",
    "Objective",
    "OptimizationError",
    "OutOfBox",
    "baselines",
    "benchfns",
    "harness",
    "mcd",
    "named_stream",
    "svgplot",
    "__version__",
]
