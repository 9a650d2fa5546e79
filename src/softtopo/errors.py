"""Exception taxonomy shared by the whole package.

The split mirrors how callers are expected to react: bad inputs are caller
bugs, failed preconditions are domain-level refusals, generation errors come
from the fuzzing lab, and document errors carry per-location diagnostics for
the CLI (which maps all of these to exit code 2).
"""

from __future__ import annotations


class SoftTopoError(Exception):
    """Base class for every error raised by this package."""


class InputError(SoftTopoError):
    """Malformed input: wrong universe, unknown names, bad configuration."""


class UniverseMismatchError(InputError):
    """Two values built over different universes were combined."""


class PreconditionError(SoftTopoError):
    """A documented operation precondition does not hold."""


class NotAdmissibleError(PreconditionError):
    """An elementary operation was applied outside the admissible family.

    Elementary union/intersection/complement are only defined on soft sets
    that are either everywhere-empty or everywhere-nonempty; anything with a
    mix of empty and nonempty slices is rejected with this error.
    """


class SubspacePreconditionError(PreconditionError):
    """Subspace construction preconditions failed; carries the report."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.describe())


class GenerationError(SoftTopoError):
    """The random generators could not produce an instance within bounds."""


class DocumentError(SoftTopoError):
    """A JSON document failed validation; carries (path, message) issues."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(f"{path}: {msg}" for path, msg in self.issues))
