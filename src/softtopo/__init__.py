"""Finite soft set algebra, elementary soft topology, and a fuzzing lab.

The package keeps three layers deliberately separate: ``core`` is the pure
set algebra, the mid-level modules (``topology``, ``separation``,
``compactness``, ``subspace``, ``maps``, ``baire``) are checkers that answer
with reports rather than bare booleans, and ``fuzzing`` turns statements
about those checkers into seeded, shrinkable trials.
"""

__version__ = "0.1.0"
