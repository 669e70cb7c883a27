"""Almost-free abelian groups from special ladder systems.

Construction of the groups, their filtration and separability projections,
level-preserving isomorphisms between range-matched systems, uniformization
machinery, and the finite-stage parity splitting obstruction.  Everything is
exact: ordinals in Cantor normal form, and rational coefficients as integer
numerators over one denominator per element or basis matrix.
"""

from .equivalence import (
    Disjointification,
    LevelIsoReport,
    OverlapReport,
    build_matched_stages,
    disjointify,
    invert_level_iso,
    level_iso_build,
    level_iso_verify,
    overlap_check,
)
from .ladders import (
    BlockRule,
    LadderInvalidError,
    LadderReport,
    LadderShapeError,
    LadderSystem,
    LadderSystemError,
    OmegaRange,
    PrefixExhaustedError,
    SpecialLadder,
    TreeLikeReport,
    companion_same_range,
    first_block_reaching,
    is_tree_like,
    make_block_special,
    make_simple_special,
    omega_range,
    prefix_special,
    validate_special,
)
from .ordinals import (
    OMEGA,
    OMEGA_SQ,
    ONE,
    ZERO,
    Ordinal,
    OrdinalParseError,
    format_ordinal,
    nat,
    omega_power,
    parse_ordinal,
    plus_omega,
)
from .presentation import (
    ConfigError,
    FactorialPsi,
    FreeElement,
    Generator,
    GeneratorMap,
    GroupConfig,
    MapDomainError,
    MembershipResult,
    ScopeError,
    TablePsi,
    WGEN,
    block_element,
    chain_element,
    chain_relation,
    compose_maps,
    generator_level,
    membership,
    membership_at_level,
    stage_rewrite,
    verify_hom,
    xgen,
    ygen,
)
from .splitting import (
    Coloring,
    ExtensionError,
    ExtensionHom,
    IntegerTarget,
    MarkedBasisTarget,
    ObstructionVerdict,
    SearchResult,
    TwistedStage,
    UniformizationData,
    UniformizationError,
    build_twisted,
    choose_annihilator,
    extend_hom,
    greedy_uniformize,
    induced_coloring,
    parity_obstruction,
    recover_uniformization,
    splitting_search,
    splitting_search_pair,
    zero_coloring,
)
from .stages import (
    FreenessBasis,
    ProjectionReport,
    StageGroup,
    build_stage,
    filtration_subgroup,
    freeness_basis,
    projection,
)

__version__ = "0.1.0"
