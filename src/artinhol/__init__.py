"""Hilbert bases and holomorphy criteria for semigroups of Artin L-functions.

Models the multiplicative semigroup generated by the Artin L-functions of
a Galois extension as N^r, decides holomorphy at a point through an
integer order profile, computes Hilbert bases of the holomorphy
sub-semigroup with two independent engines, and mechanically verifies the
equivalence of four holomorphy criteria over exhaustive instance families.
"""

from .catalog import GroupEntry, catalog_groups, get_group, validate_catalog_entry
from .conditions import (
    ConditionReport,
    PairWitness,
    SubsetSelector,
    check_instance,
    cond_i,
    cond_ii,
    cond_ii_pair,
    cond_ii_prime,
    cond_iii,
    cond_iii_subset,
    factorial_closed_form,
)
from .core import (
    DegreeVector,
    Instance,
    OrderVector,
    divides_ar,
    divides_hol,
    is_admissible,
    is_member_hol,
    order_of,
    validate_exponent_vector,
)
from .hilbert import (
    FactorizationCount,
    HilbertBasis,
    adjoined_irreducibles,
    count_factorizations,
    hilbert_basis_frontier,
    hilbert_basis_oracle,
    is_factorial,
    is_irreducible,
    lattice_is_full,
    nonuniqueness_witness,
)
from .sweep import (
    SweepPlan,
    SweepSummary,
    enumerate_order_vectors,
    run_sweep,
    summarize,
    sweep_reports,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionReport",
    "DegreeVector",
    "FactorizationCount",
    "GroupEntry",
    "HilbertBasis",
    "Instance",
    "OrderVector",
    "PairWitness",
    "SubsetSelector",
    "SweepPlan",
    "SweepSummary",
    "adjoined_irreducibles",
    "catalog_groups",
    "check_instance",
    "cond_i",
    "cond_ii",
    "cond_ii_pair",
    "cond_ii_prime",
    "cond_iii",
    "cond_iii_subset",
    "count_factorizations",
    "divides_ar",
    "divides_hol",
    "enumerate_order_vectors",
    "factorial_closed_form",
    "get_group",
    "hilbert_basis_frontier",
    "hilbert_basis_oracle",
    "is_admissible",
    "is_factorial",
    "is_irreducible",
    "is_member_hol",
    "lattice_is_full",
    "nonuniqueness_witness",
    "order_of",
    "run_sweep",
    "summarize",
    "sweep_reports",
    "validate_catalog_entry",
    "validate_exponent_vector",
    "__version__",
]
