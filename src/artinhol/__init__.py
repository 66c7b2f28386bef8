"""Hilbert bases and holomorphy criteria for semigroups of Artin L-functions.

Models the multiplicative semigroup generated by the Artin L-functions of
a Galois extension as N^r, decides holomorphy at a point through an
integer order profile, computes Hilbert bases of the holomorphy
sub-semigroup with two independent engines, and mechanically verifies the
equivalence of four holomorphy criteria over exhaustive instance families.

Each public name is loaded from its home module on first access (PEP 562),
so importing the package, or one of its modules, compiles only what that
module itself imports.  No module of the package imports this namespace.
"""

import importlib

# The one table of exports: each public name by its home module.
_EXPORTS = {
    "catalog": ("GroupEntry", "catalog_groups", "get_group", "validate_catalog_entry"),
    "conditions": (
        "ConditionReport",
        "PairWitness",
        "SubsetSelector",
        "check_instance",
        "cond_i",
        "cond_ii",
        "cond_ii_pair",
        "cond_ii_prime",
        "cond_iii",
        "cond_iii_subset",
        "factorial_closed_form",
    ),
    "core": (
        "DegreeVector",
        "Instance",
        "OrderVector",
        "is_admissible",
        "is_member_hol",
        "order_of",
        "validate_exponent_vector",
    ),
    "hilbert": (
        "FactorizationCount",
        "HilbertBasis",
        "count_factorizations",
        "hilbert_basis_frontier",
        "hilbert_basis_oracle",
        "nonuniqueness_witness",
    ),
    "sweep": (
        "SweepPlan",
        "SweepSummary",
        "enumerate_order_vectors",
        "run_sweep",
        "summarize",
        "sweep_reports",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    # An unknown name raises AttributeError, so `from artinhol import cli`
    # falls back to importing the submodule.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups never reach __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
