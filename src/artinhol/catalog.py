"""Built-in character-degree vectors of small Galois-realizable groups.

Static data only: each entry records the group name, its order, and the
multiset of irreducible character degrees in nondecreasing order.  The
degrees supply realistic (r, d) families for sweeps; no character theory
is computed here, and the shipped table is re-validated by the test suite
through the sum-of-squares and divisibility laws.
"""

from __future__ import annotations

from .core import DegreeVector, _setattr, _Value


class GroupEntry(_Value):
    """One catalog row: group name, order, degree vector."""

    __slots__ = ("name", "order", "degrees")
    name: str
    order: int
    degrees: DegreeVector

    def __init__(self, name: str, order: int, degrees: DegreeVector):
        _setattr(self, "name", name)
        _setattr(self, "order", order)
        _setattr(self, "degrees", degrees)

    @property
    def class_count(self) -> int:
        """Number of conjugacy classes: one irreducible character per class."""
        return len(self.degrees.entries)


_TABLE = (
    ("C1", 1, (1,)),
    ("C2", 2, (1, 1)),
    ("C3", 3, (1, 1, 1)),
    ("S3", 6, (1, 1, 2)),
    ("C4", 4, (1, 1, 1, 1)),
    ("V4", 4, (1, 1, 1, 1)),
    ("Q8", 8, (1, 1, 1, 1, 2)),
    ("D4", 8, (1, 1, 1, 1, 2)),
    ("A4", 12, (1, 1, 1, 3)),
    ("S4", 24, (1, 1, 2, 3, 3)),
    ("A5", 60, (1, 3, 3, 4, 5)),
    ("S5", 120, (1, 1, 4, 4, 5, 5, 6)),
)


def catalog_groups() -> tuple[GroupEntry, ...]:
    """All shipped entries, in catalog order."""
    return tuple(
        GroupEntry(name, order, DegreeVector(degrees))
        for name, order, degrees in _TABLE
    )


def get_group(name: str) -> GroupEntry:
    """Look up one entry by name; raises KeyError if absent."""
    for entry in catalog_groups():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog group named {name!r}")


def validate_catalog_entry(entry: GroupEntry) -> tuple[bool, tuple[str, ...]]:
    """Check all entry invariants; returns (ok, reasons)."""
    reasons = []
    degrees = entry.degrees.entries
    if any(a > b for a, b in zip(degrees, degrees[1:])):
        reasons.append("degrees not sorted nondecreasing")
    sq = sum(d * d for d in degrees)
    if sq != entry.order:
        reasons.append(f"sum of squares {sq} != {entry.order}")
    for d in degrees:
        if entry.order % d != 0:
            reasons.append(f"{d} does not divide {entry.order}")
    return (not reasons, tuple(reasons))
