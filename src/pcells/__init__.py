"""Exact cell computations for Hecke algebras of finite crystallographic
Coxeter groups: Kazhdan-Lusztig bases, canonical-basis tables at a prime,
cell preorders and partitions, star operations, tau invariants, and the
Robinson-Schensted description of cells in type A."""

from .laurent import GAUSS, ONE, V, V_INV, ZERO, LaurentPoly
from .coxeter import (
    CoxeterSystem,
    GroupTooLargeError,
    cartan_matrix_of_type,
    cartan_to_coxeter,
    parse_digits,
    word_digits,
)
from .hecke import (
    HeckeElt,
    KLTable,
    bar_involution,
    change_basis,
    compute_kl_table,
    kl_multiply_by_generator,
    std_multiply,
)
from .pcanonical import (
    PCanTable,
    PCanValidationError,
    identity_table,
    load_fixture,
    load_table,
    p_h,
    restrict_to_parabolic,
    structure_coefficients,
    verify_parabolic_factorization,
)
from .report import Report
from .cells import (
    CellPartition,
    ColouredWGraph,
    compute_cells,
    check_descent_invariant,
    decomposition_criterion,
    elementary_relations,
    extract_wgraph,
    inverse_duality_check,
    left_cells_from_right,
    propagate_nondecomposition,
    right_minimal_elements,
    subquotient_wgraph,
    transport_preorder,
    two_sided_cells,
    verify_wgraph_relations,
)
from .stars import (
    DihedralStrings,
    PBoundError,
    StringDecomposition,
    TauPartition,
    check_base_change_relations,
    check_string_vanishing,
    check_structure_coefficient_relations,
    classify_string_relation,
    star_closure_check,
    tau_partition,
    tau_tilde_partition,
)
from .typea import (
    hook_length_count,
    inverse_rs,
    knuth_moves,
    rs_correspondence,
    verify_typea_cell_theorem,
)

__version__ = "0.1.0"
