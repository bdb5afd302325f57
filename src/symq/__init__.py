"""Finite symmetric racks and quandles: validation, cohomology, extensions.

The library computes with pairs (X, rho) of a finite rack/quandle and a good
involution: axiom checking, good-involution and automorphism enumeration,
(X, rho)-module cohomology in degrees 1 and 2, dynamical cocycles and their
extensions, abelian extensions, and the exact-sequence machinery relating
automorphisms of an abelian extension to the second cohomology group.
"""

__version__ = "0.1.0"

import types as _types
from .errors import (
    SymqError,
    EmptyCarrier,
    SizeBoundExceeded,
    SearchSpaceExceeded,
    NotCentralInvolution,
    NotASubgroup,
    NotNormal,
    NotSurjective,
    InfiniteGroupUnsupported,
    NotConstantModule,
    NotACocycle,
    ValidationError,
    Diagnostic,
)
from .abelian import (
    AbGroup,
    AbHom,
    SmithDecomposition,
    Subquotient,
    smith_normal_form,
    kernel,
    image,
    quotient,
    solve,
)
from .racks import (
    RACK,
    QUANDLE,
    FiniteRack,
    FiniteSymmetricRack,
    RackMorphism,
    rack_diagnostics,
    validate_rack,
    good_involution_diagnostics,
    validate_good_involution,
    enumerate_good_involutions,
    enumerate_automorphisms,
    is_isomorphism,
    trivial_rack,
    takasaki,
    cycle_notation,
)
from .groups import (
    FiniteGroup,
    subgroup_check,
    is_normal,
    quotient_group,
    conj_quandle,
    core_quandle,
)
from .modules import (
    RackModule,
    ModuleCheck,
    validate_module,
    constant_module,
    dihedral_kamada_module,
)
from .cohomology import (
    THEORY_SR,
    THEORY_SQ,
    FormalChain,
    Cochain,
    CochainSpace,
    CohomologyPresentation,
    bracket,
    boundary,
    verify_chain_complex,
    delta,
    delta1,
    cochain_space,
    is_cochain,
    is_cocycle,
    cohomology_presentation,
    coboundary_witness,
)
from .dynamical import (
    DynamicalCocycle,
    DynamicalExtension,
    Gauge,
    GroupExtensionSplitting,
    dynamical_diagnostics,
    build_extension,
    gauge_transform,
    are_cohomologous_dynamical,
    from_cocycle,
    affine_tables,
    from_surjection,
    from_group_extension,
)
from .wells import (
    AbelianExtension,
    AutPair,
    LiftedAutomorphism,
    WellsReport,
    build_abelian_extension,
    module_automorphisms,
    validate_aut_pair,
    enumerate_aut_pairs,
    act_on_cocycle,
    lambda_map,
    stabilizer,
    extend_pair,
    z1_elements,
    enumerate_autA_extension,
    gamma_restriction,
    brute_force_fiber_automorphisms,
    wells_report,
)
from .serialize import (
    fixture_path,
    load_json,
    save_json,
    load_rack,
    save_rack,
    load_group,
    save_group,
    load_module,
    save_module,
    load_cochain,
    save_cochain,
    load_dynamical,
    save_dynamical,
)

# The import blocks above are the API; __all__ follows them, in their order.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
