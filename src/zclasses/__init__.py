"""Finite-group computations on dense multiplication tables.

Construct small groups concretely (abelian, dihedral, quaternion, the two
non-abelian order-p^3 families, extraspecial central products), partition
them by conjugacy of centralizers, compute conjugate type vectors, test
isoclinism (by construction in the checks, by complete backtracking for a
pair a user supplies), and sweep every statement over a catalog of groups.
"""

from .core import (
    DEFAULT_ORDER_CAP,
    GroupTable,
    QuotientGroup,
    SubgroupSet,
    are_subgroups_conjugate,
    center,
    central_product,
    central_quotient,
    centralizer,
    commutator_pairing,
    commutator_subgroup,
    commuting_table,
    direct_product,
    element_orders,
    from_multiplication_table,
    from_permutation_generators,
    is_abelian,
    is_elementary_abelian,
    normalizer,
    read_cayley_table,
    subgroup_generated,
    validate_group_table,
    write_cayley_table,
)
from .construct import (
    abelian,
    cyclic,
    dihedral,
    extraspecial,
    frattini_subgroup,
    heisenberg,
    is_extraspecial,
    modular_p3,
    quaternion,
)
from .zclass import (
    TheoremReport,
    ZClass,
    ZClassPartition,
    condition_central_quotient_elementary,
    condition_local_center,
    conjugate_type_vector,
    has_abelian_subgroup_of_index_p,
    is_type_n_1,
    kulkarni_size_check,
    max_zclass_bound,
    strict_fixed_set,
    verify_bounds,
    verify_kulkarni,
    verify_theorem_A,
    verify_theorem_mt,
    z_class_count,
    z_class_partition,
)
from .isoclinism import (
    DEFAULT_ISO_CAP,
    IsoclinismWitness,
    are_isoclinic,
    is_stem_group,
    verify_corollary_est,
    verify_direct_factor_invariance,
    verify_isoclinism_invariance,
)
from .specs import GroupSpec, build_group, parse_spec
from .catalog import (
    CatalogEntry,
    analyze_group,
    builtin_catalog,
    parse_catalog_file,
    run_catalog,
    run_theorem,
)
from . import errors

__version__ = "0.1.0"
