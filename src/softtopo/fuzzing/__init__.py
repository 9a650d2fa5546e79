"""Seeded random instance generation, theorem registry, and shrinking."""

from .generate import ALGORITHM_ID, GeneratorConfig, gen_topology
from .harness import TrialReport, run_theorem
from .registry import REGISTRY, TheoremCase

__all__ = [
    "ALGORITHM_ID",
    "GeneratorConfig",
    "REGISTRY",
    "TheoremCase",
    "TrialReport",
    "gen_topology",
    "run_theorem",
]
