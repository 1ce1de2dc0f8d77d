"""Exact packing chromatic numbers, criticality certificates, and
theorem-verification sweeps for small graphs and parametrized cacti."""

from .classify import (
    Verdict,
    block_graph_diam3_criterion,
    classify_cactus_rad2_diam2,
    classify_cactus_rad2_diam3,
    classify_radius1,
)
from .criticality import CriticalityReport, has_leaf_violation, is_edge_critical, is_vertex_critical
from .enumeration import EnumerationFilter, canonical_cert, enumerate_graphs
from .errors import (
    CapExceededError,
    CharacterizationError,
    DisconnectedGraphError,
    GraphInputError,
    PreconditionError,
    SpecSyntaxError,
)
from .families import (
    BuiltFamily,
    FamilySpec,
    build,
    closed_form_chi_rho,
    closed_form_critical,
    critical_clause,
    parse_spec,
    recognize,
)
from .graphio import emit_dot, emit_edge_list, emit_graph6, parse_edge_list, parse_graph6, read_graph6_lines
from .graphs import (
    UNREACHABLE,
    Block,
    BlockDecomposition,
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    block_decomposition,
    bridges,
    build_graph,
    center,
    components,
    cut_vertices,
    delete_edge,
    delete_vertex,
    diameter,
    eccentricities,
    induced_subgraph,
    is_block_graph,
    is_cactus,
    is_connected,
    is_tree,
    leaves,
    radius,
    universal_vertices,
)
from .independence import (
    AlphaCriticality,
    MisResult,
    alpha,
    check_lemma_rad3,
    haynes_check,
    is_alpha_critical,
    max_independent_set,
    mis_avoiding,
)
from .iso import find_isomorphism, is_isomorphic
from .packing import (
    ChiRho,
    PackingColoring,
    chi_rho,
    chi_rho_lower_bound,
    diam2_formula,
    max_i_packing,
    packs_within,
    verify_packing_coloring,
)
from .verify import THEOREMS, VerificationReport, run_sweep

__version__ = "0.1.0"
