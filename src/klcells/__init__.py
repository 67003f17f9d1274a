"""Kazhdan-Lusztig cells of dihedral groups, exactly.

The package computes, over the integers wherever the mathematics allows:

* the dihedral group D_n and its KL basis at q = 1 (``dihedral``, ``algebra``),
* left, right and two-sided cells with their orders, cell modules and the
  strong regularity test (``cells``),
* the simple modules of D_n and exact character decomposition
  (``reps``),
* extension of a nonnegative integer matrix pair along the KL recursion,
  the filters F1 through F7, apex annihilator polynomials, the block
  determinant identity and Perron data (``nimrep``),
* exhaustive, deterministic classification of candidate pairs up to
  simultaneous permutation and swapping the two generators (``classify``),
* the acceptance checks A1 through A12 (``verification``) and a command
  line front end (``klcells``, see ``cli``).
"""

from .algebra import (
    GroupAlgebraElement,
    group_to_kl,
    kl_basis_element,
    kl_left_multiply_generator,
    kl_multiply,
    kl_regular_matrices,
    kl_to_group,
    structure_constants,
)
from .cells import (
    CellModule,
    CellPartition,
    RegularityReport,
    cell_by_name,
    cell_diagram_dot,
    cell_module,
    compute_cells,
    is_strongly_regular,
    right_cell_module,
)
from .classify import (
    Candidate,
    ClassificationReport,
    Tag,
    canonical_pair,
    canonicalize,
    classify,
    enumerate_candidates,
    inspect_pair,
)
from .dihedral import GroupElement, DihedralGroup, bruhat_lt, dihedral_group, render
from .nimrep import (
    ExtendedRep,
    ExtensionFailure,
    FilterReport,
    MatrixPair,
    PerronAnalysis,
    annihilator_check,
    apex_of,
    det_identity,
    extend,
    global_annihilator,
    perron_analysis,
)
from .reps import (
    Decomposition,
    NotAModuleError,
    OneDim,
    SimpleModule,
    TwoDim,
    char_poly_two_dim,
    decompose,
    simple_name,
    simples,
)
from .verification import CheckResult, run_check, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GroupElement",
    "DihedralGroup",
    "dihedral_group",
    "bruhat_lt",
    "render",
    "GroupAlgebraElement",
    "kl_basis_element",
    "kl_multiply",
    "kl_left_multiply_generator",
    "kl_to_group",
    "group_to_kl",
    "structure_constants",
    "kl_regular_matrices",
    "CellPartition",
    "CellModule",
    "RegularityReport",
    "compute_cells",
    "cell_by_name",
    "cell_module",
    "right_cell_module",
    "is_strongly_regular",
    "cell_diagram_dot",
    "OneDim",
    "TwoDim",
    "SimpleModule",
    "Decomposition",
    "NotAModuleError",
    "simples",
    "simple_name",
    "char_poly_two_dim",
    "decompose",
    "MatrixPair",
    "ExtendedRep",
    "ExtensionFailure",
    "FilterReport",
    "PerronAnalysis",
    "extend",
    "apex_of",
    "global_annihilator",
    "annihilator_check",
    "det_identity",
    "perron_analysis",
    "Tag",
    "Candidate",
    "ClassificationReport",
    "canonicalize",
    "canonical_pair",
    "classify",
    "enumerate_candidates",
    "inspect_pair",
    "CheckResult",
    "run_check",
    "run_suite",
]
