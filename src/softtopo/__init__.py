"""Finite soft set algebra, elementary soft topology, and a fuzzing lab.

The package keeps three layers deliberately separate: ``core`` is the pure
set algebra, the mid-level modules (``topology``, ``separation``,
``compactness``, ``subspace``, ``maps``, ``baire``) are checkers that answer
with reports rather than bare booleans, and ``fuzzing`` turns statements
about those checkers into seeded, shrinkable trials.
"""

from .baire import (
    BaireReport,
    CategoryReport,
    LocalCompactnessReport,
    baire_subfamily_oracle,
    first_category_oracle,
    is_baire,
    is_baire_by_nowhere_dense,
    is_first_category,
    is_locally_compact,
    is_nowhere_dense,
    rare_closed_sets,
)
from .compactness import (
    CompactSetReport,
    CompactSpaceReport,
    QuasiCompactnessReport,
    fip_witness,
    is_compact_set,
    is_compact_space,
    is_quasi_compact,
    nested_intersection_check,
)
from .core import (
    ElementBag,
    SoftElement,
    SoftSet,
    Universe,
    constant_set,
    element_count,
    elementary_complement,
    elementary_intersection,
    elementary_intersection_family,
    elementary_relative_complement,
    elementary_union,
    elementary_union_family,
    full_set,
    is_admissible,
    is_member,
    is_null,
    is_soft_subset,
    iter_elements,
    null_set,
    pointwise_complement,
    pointwise_intersection,
    pointwise_union,
    relative_complement,
    span,
)
from .document import SpaceDocument, parse, parse_file, serialize
from .errors import (
    DocumentError,
    GenerationError,
    InputError,
    InvalidTopologyError,
    NotAdmissibleError,
    PreconditionError,
    SoftTopoError,
    SubspacePreconditionError,
    UniverseMismatchError,
)
from .maps import (
    SoftFunction,
    definitional_continuity,
    image,
    is_continuous_at,
    preimage,
    preimage_continuity,
)
from .separation import (
    SeparationReport,
    is_hausdorff,
    is_normal,
    is_regular,
)
from .subspace import (
    RelativeClosedDecomposition,
    SubspaceResult,
    build_subspace,
    carrier_set,
    check_subspace_preconditions,
    decompose_relatively_closed,
    is_relatively_closed,
)
from .topology import (
    LimitingMode,
    SoftTopology,
    TopologyReport,
    closed_sets,
    closure,
    full_topology,
    indiscrete_topology,
    interior,
    is_closed,
    is_limiting,
    is_nbd,
    is_open,
    limiting_elements,
    nbd_witness,
    topology_from,
    verify_topology,
)

__version__ = "0.1.0"
