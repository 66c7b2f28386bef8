"""Exponent-vector model of the multiplicative semigroup of Artin L-functions.

The free commutative semigroup on r generators is represented by N^r: the
element f1^k1 * ... * fr^kr is the tuple k = (k1, ..., kr), with the zero
tuple standing for the constant function 1.  A point s0 != 1 enters the
model only through its order profile v, where v[j] is the integer order of
the j-th generator at s0.  Orders add under multiplication, so the element
k has order <k, v>, and k is holomorphic at s0 exactly when <k, v> >= 0.

Exponent vectors are plain tuples of nonnegative ints throughout the
package; order and degree vectors are small validated value types, built
on _Value, the base of every value type in the package.  All
arithmetic is overflow-checked against the signed 64-bit range: orders are
capped at 32 bits on input so that single products k_j * v_j cannot wrap,
and running sums are verified term by term unless a bound on the entries
shows that none can leave the range.  Each check tests a whole vector at
C speed first (its set of types, its min and max) and walks the entries
one by one only to name the first that fails.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence, Union

from .errors import ArithmeticOverflowError, LengthMismatchError

INT32_MAX = 2**31 - 1
INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

#: Entries each per-process cache keeps (conditions' pair rows, type-table
#: expansions and carriers, serialize's record texts).  One sweep from cold
#: caches meets, on S4 B=2 / S5 B=1 / S5 B=2, 170 / 161 / 518 pair rows,
#: 106 / 36 / 295 table bases and 120 / 1,312 / 4,919 carriers: only the
#: carriers of S5 B=2 outgrow it.
CACHE_SIZE = 4096


_setattr = object.__setattr__


class _Value:
    """Base of the package's immutable value types, read from __slots__.

    A subclass lists its fields in __slots__, in constructor order; a slot
    whose name starts with an underscore is private state outside them.
    Its __init__ validates and converts its arguments and sets each slot
    once with object.__setattr__.  The base compares two values of one
    class field by field, hashes and shows the fields, refuses assignment
    and deletion, and builds _replace's value through __init__, so that it
    validates again.  Unpickling sets the fields a value was pickled with,
    validated when it was built, without validating them again, and every
    private slot to None (_restore).
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()
    _private: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._private = tuple(name for name in cls.__slots__ if name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _restore, (self.__class__, self._values())

    def _replace(self, **changes):
        """A value of this class with the given fields changed, validated
        again by its constructor."""
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))


def _restore(cls: type, values: tuple) -> _Value:
    """The value of cls with the given field values, in field order, set
    without validating them, and every private slot None: the value that
    _Value.__reduce__ pickled, which its constructor validated.  Unpickling
    is its one use; any other input goes through cls's constructor."""
    value = cls.__new__(cls)
    for name, x in zip(cls._fields, values):
        _setattr(value, name, x)
    for name in cls._private:
        _setattr(value, name, None)
    return value


def _int_entries(entries, what: str) -> tuple[int, ...]:
    try:
        out = tuple(entries)
    except TypeError:
        raise TypeError(f"{what} must be a sequence of ints, got {entries!r}") from None
    if set(map(type, out)) <= {int}:
        return out
    # bools and other non-ints are found one by one, to name the first
    for x in out:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"{what} entries must be ints, got {x!r}")
    return out


def _int_value(x, what: str) -> int:
    """x, if it is an int and not a bool; else TypeError naming `what`."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{what} must be an int, got {x!r}")
    return x


def validate_exponent_vector(k: Sequence[int], rank: int | None = None) -> tuple[int, ...]:
    """Normalize k to a tuple, checking nonnegativity and (optionally) rank."""
    kk = _int_entries(k, "exponent vector")
    if rank is not None and len(kk) != rank:
        raise LengthMismatchError(f"exponent vector has length {len(kk)}, expected {rank}")
    if kk and min(kk) < 0:
        x = next(x for x in kk if x < 0)
        raise ValueError(f"exponent entries must be nonnegative, got {x}")
    return kk


class OrderVector(_Value):
    """Order profile (ord f_1, ..., ord f_r) of the generators at s0.

    Entries are validated to the signed 32-bit range so every product
    k_j * v_j met downstream stays well inside 64 bits.
    """

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: Sequence[int]):
        ent = _int_entries(entries, "order vector")
        _setattr(self, "entries", ent)
        if not ent:
            raise ValueError("order vector must have rank >= 1")
        if max(ent) > INT32_MAX or min(ent) < -INT32_MAX:
            x = next(x for x in ent if abs(x) > INT32_MAX)
            raise ValueError(f"order {x} outside the 32-bit input range")

    @property
    def rank(self) -> int:
        return len(self.entries)


OrdersLike = Union[OrderVector, Sequence[int]]


def as_order_vector(v: OrdersLike) -> OrderVector:
    return v if isinstance(v, OrderVector) else OrderVector(v)


class DegreeVector(_Value):
    """Character-degree vector d with every d[j] >= 1.

    Also the exponent vector of the Dedekind zeta function of the field,
    since zeta_K factors as the product of the generators to their degrees.
    The laws tying degrees to a group order are checked on catalog entries
    by catalog.validate_catalog_entry.
    """

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: Sequence[int]):
        ent = _int_entries(entries, "degree vector")
        _setattr(self, "entries", ent)
        if not ent:
            raise ValueError("degree vector must have rank >= 1")
        if min(ent) < 1:
            raise ValueError(f"degrees must be >= 1, got {next(d for d in ent if d < 1)}")

    @property
    def rank(self) -> int:
        return len(self.entries)


def check_flags(obj, *labels: str) -> None:
    """Raise TypeError unless obj's require_dedekind and
    require_trivial_nonneg are bools and each named label is a str or None."""
    for name in ("require_dedekind", "require_trivial_nonneg"):
        if not isinstance(getattr(obj, name), bool):
            raise TypeError(f"{name} must be a bool, got {getattr(obj, name)!r}")
    for name in labels:
        if not isinstance(getattr(obj, name), (str, type(None))):
            raise TypeError(f"{name} must be a str or None, got {getattr(obj, name)!r}")


class Instance(_Value):
    """One hypothetical situation: degrees, order profile, flags.

    degrees and orders may be given as DegreeVector and OrderVector or as
    plain sequences of ints, which are converted to them; anything else
    raises TypeError.  The field and the point s0 are carried only as
    opaque labels; no analytic content is attached to them.  Admissibility
    is a verdict of is_admissible, not a construction guard, so
    inadmissible instances can be built, swept, and recorded.
    """

    __slots__ = (
        "degrees", "orders", "require_dedekind", "require_trivial_nonneg", "group", "s0_label"
    )
    degrees: DegreeVector
    orders: OrderVector
    require_dedekind: bool
    require_trivial_nonneg: bool
    group: str | None
    s0_label: str | None

    def __init__(
        self,
        degrees: DegreeVector | Sequence[int],
        orders: OrderVector | Sequence[int],
        require_dedekind: bool = True,
        require_trivial_nonneg: bool = False,
        group: str | None = None,
        s0_label: str | None = None,
    ):
        if not isinstance(degrees, DegreeVector):
            degrees = DegreeVector(degrees)
        if not isinstance(orders, OrderVector):
            orders = OrderVector(orders)
        _setattr(self, "degrees", degrees)
        _setattr(self, "orders", orders)
        _setattr(self, "require_dedekind", require_dedekind)
        _setattr(self, "require_trivial_nonneg", require_trivial_nonneg)
        _setattr(self, "group", group)
        _setattr(self, "s0_label", s0_label)
        if len(degrees.entries) != len(orders.entries):
            raise LengthMismatchError(f"degrees {degrees.rank} vs orders {orders.rank}")
        check_flags(self, "group", "s0_label")

    @property
    def rank(self) -> int:
        return self.degrees.rank


def order_of(k: Sequence[int], v: OrdersLike) -> int:
    """Order at s0 of the element with exponents k: the sum of k[j] * v[j].

    Raises ArithmeticOverflowError if any product or partial sum leaves the
    signed 64-bit range, and LengthMismatchError on rank disagreement.
    Every |v_j| <= INT32_MAX, so when len(k) * max(k) * INT32_MAX <= INT64_MAX
    no product and no partial sum can leave the range, and the sum is
    taken in one pass at C speed; otherwise each step is checked.
    """
    ent = as_order_vector(v).entries
    return _dot(validate_exponent_vector(k, rank=len(ent)), ent)


def _dot(k: tuple[int, ...], ent: tuple[int, ...]) -> int:
    """order_of for an exponent vector k and orders ent already validated,
    of one rank: the bound of order_of's docstring, then one pass at C
    speed or the checked loop."""
    if len(k) * max(k) * INT32_MAX <= INT64_MAX:
        return sum(map(mul, k, ent))
    total = 0
    for kj, vj in zip(k, ent):
        p = kj * vj
        if p > INT64_MAX or p < INT64_MIN:
            raise ArithmeticOverflowError(f"{kj} * {vj} leaves the 64-bit range")
        total += p
        if total > INT64_MAX or total < INT64_MIN:
            raise ArithmeticOverflowError("order accumulation left the 64-bit range")
    return total


def is_member_hol(k: Sequence[int], v: OrdersLike) -> bool:
    """True iff the element k is holomorphic at s0, i.e. <k, v> >= 0."""
    return order_of(k, v) >= 0


def is_admissible(inst: Instance) -> tuple[bool, tuple[str, ...]]:
    """Evaluate the enabled admissibility constraints; returns (ok, reasons).

    With require_dedekind on, the zeta-function exponent vector d must have
    nonnegative order, i.e. <d, v> >= 0; with require_trivial_nonneg on,
    the trivial character's order v1 must be >= 0 (_admissible_reasons).
    """
    degrees, orders = inst.degrees.entries, inst.orders.entries
    reasons = _admissible_reasons(
        degrees, orders, inst.require_dedekind, inst.require_trivial_nonneg
    )
    return (not reasons, reasons)


def _admissible_reasons(
    degrees: tuple[int, ...],
    orders: tuple[int, ...],
    require_dedekind: bool,
    require_trivial_nonneg: bool,
) -> tuple[str, ...]:
    """The reasons is_admissible gives, from degrees and orders already
    validated, of one rank, which are not validated again."""
    reasons = []
    if require_dedekind:
        s = _dot(degrees, orders)
        if s < 0:
            reasons.append(f"dedekind:<d,v>={s}<0")
    if require_trivial_nonneg:
        v1 = orders[0]
        if v1 < 0:
            reasons.append(f"trivial_nonneg:v1={v1}<0")
    return tuple(reasons)
