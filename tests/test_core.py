"""Core model: order functional, membership, divisibility, admissibility."""

from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinhol import (
    DegreeVector,
    Instance,
    OrderVector,
    SubsetSelector,
    SweepPlan,
    check_instance,
    get_group,
    is_admissible,
    is_member_hol,
    order_of,
    validate_exponent_vector,
)
from artinhol.conditions import cross_checked_basis
from artinhol.core import INT32_MAX, INT64_MAX, INT64_MIN
from artinhol.errors import (
    ArithmeticOverflowError,
    InvalidSubsetError,
    LengthMismatchError,
    NotInHolError,
)
from artinhol.sweep import summarize, sweep_reports
from conftest import divides_ar, divides_hol

BOX2 = list(itertools.product(range(-3, 4), repeat=2))
EXP_BOX2 = list(itertools.product(range(4), repeat=2))


class TestOrderOf:
    def test_direct_arithmetic(self):
        assert order_of((2, 1, 5), (1, -1, 0)) == 1
        assert order_of((1, 1), (2, -3)) == -1

    def test_identity_has_order_zero(self):
        for v in [(-5,), (1, 2), (0, 0, 0), (7, -7, 3)]:
            assert order_of((0,) * len(v), v) == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            order_of((1, 2), (1,))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            order_of((-1, 0), (1, 1))

    def test_overflow_is_hard_error(self):
        with pytest.raises(ArithmeticOverflowError):
            order_of((2**40,), (2**30,))

    def test_sum_overflow(self):
        # each product 2**62 fits, the running sum does not (2**33 * 2**30
        # = 2**63 would already fail as a product)
        with pytest.raises(ArithmeticOverflowError, match="accumulation"):
            order_of((2**32, 2**32, 2**32), (2**30, 2**30, 2**30))

    def test_orders_validated_to_32_bits(self):
        with pytest.raises(ValueError):
            OrderVector((2**31,))
        OrderVector((2**31 - 1,))  # boundary is fine

    @given(
        st.integers(1, 6).flatmap(
            lambda r: st.tuples(
                st.lists(st.integers(0, 50), min_size=r, max_size=r),
                st.lists(st.integers(0, 50), min_size=r, max_size=r),
                st.lists(st.integers(-1000, 1000), min_size=r, max_size=r),
            )
        )
    )
    def test_additivity(self, kkv):
        a, b, v = kkv
        ab = tuple(x + y for x, y in zip(a, b))
        assert order_of(ab, v) == order_of(a, v) + order_of(b, v)


def _checked_order(k, v) -> int:
    """<k, v> by a loop that checks every product and partial sum: the
    reference for order_of, which skips the checks when a bound allows."""
    ent = OrderVector(tuple(v)).entries
    kk = validate_exponent_vector(k, rank=len(ent))
    total = 0
    for kj, vj in zip(kk, ent):
        p = kj * vj
        if p > INT64_MAX or p < INT64_MIN:
            raise ArithmeticOverflowError(f"{kj} * {vj} leaves the 64-bit range")
        total += p
        if total > INT64_MAX or total < INT64_MIN:
            raise ArithmeticOverflowError("order accumulation left the 64-bit range")
    return total


def _outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def near_the_fast_path_bound(draw):
    """(k, v) of rank 1-8 with entries of k up to 2**40, or with max(k)
    next to the largest value that keeps len(k) * max(k) * INT32_MAX
    within INT64_MAX; orders anywhere in range, or all at its ends."""
    r = draw(st.integers(1, 8))
    ends = st.sampled_from([INT32_MAX, -INT32_MAX])
    orders = draw(st.sampled_from([st.integers(-INT32_MAX, INT32_MAX), ends]))
    v = tuple(draw(orders) for _ in range(r))
    edge = INT64_MAX // (r * INT32_MAX)
    top = draw(st.one_of(st.integers(0, 2**40), st.sampled_from(range(edge - 1, edge + 3))))
    k = [draw(st.sampled_from([top, draw(st.integers(0, top))])) for _ in range(r)]
    k[draw(st.integers(0, r - 1))] = top
    return tuple(k), v


class TestFastValidation:
    """Each check tests a whole vector first and walks it only to name the
    first entry that fails; types, messages and results are unchanged."""

    @settings(max_examples=300, deadline=None)
    @given(near_the_fast_path_bound())
    def test_order_of_matches_the_checked_loop(self, kv):
        k, v = kv
        assert _outcome(order_of, k, v) == _outcome(_checked_order, k, v)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_order_of_at_the_fast_path_bound(self, r):
        edge = INT64_MAX // (r * INT32_MAX)
        for top in (edge, edge + 1):
            for vj in (INT32_MAX, -INT32_MAX):
                k, v = (top,) * r, (vj,) * r
                assert _outcome(order_of, k, v) == _outcome(_checked_order, k, v)
        assert order_of((edge,) * r, (INT32_MAX,) * r) == r * edge * INT32_MAX
        with pytest.raises(ArithmeticOverflowError):
            order_of((edge + 1,) * r, (INT32_MAX,) * r)

    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda: OrderVector((1, True)), "order vector"),
            (lambda: DegreeVector((True, 1)), "degree vector"),
            (lambda: validate_exponent_vector((0, False)), "exponent vector"),
            (lambda: order_of((1, True), (1, 1)), "exponent vector"),
            (lambda: order_of((1, 1), (False, 1)), "order vector"),
        ],
    )
    def test_bools_are_rejected(self, build, what):
        with pytest.raises(TypeError) as err:
            build()
        assert str(err.value) in {
            f"{what} entries must be ints, got True",
            f"{what} entries must be ints, got False",
        }

    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda: OrderVector(5), "order vector"),
            (lambda: DegreeVector(5), "degree vector"),
            (lambda: validate_exponent_vector(5), "exponent vector"),
            (lambda: order_of((1,), 5), "order vector"),
            (lambda: order_of(5, (1,)), "exponent vector"),
        ],
    )
    def test_a_non_sequence_is_named(self, build, what):
        with pytest.raises(TypeError) as err:
            build()
        assert str(err.value) == f"{what} must be a sequence of ints, got 5"

    def test_first_non_int_is_named(self):
        with pytest.raises(TypeError, match=r"got 1\.5$"):
            OrderVector((0, 1.5, "x"))

    def test_int_subclasses_are_accepted(self):
        class Small(int):
            pass

        assert OrderVector((Small(2), -1)).entries == (2, -1)
        assert DegreeVector((1, Small(3))).entries == (1, 3)
        assert validate_exponent_vector((Small(4), 0)) == (4, 0)
        assert order_of((Small(1), 1), (Small(2), -1)) == 1

    def test_out_of_range_orders_name_the_first(self):
        with pytest.raises(ValueError) as err:
            OrderVector((0, -(2**31), 2**31))
        assert str(err.value) == "order -2147483648 outside the 32-bit input range"
        with pytest.raises(ValueError) as err:
            OrderVector((2**31, -(2**40)))
        assert str(err.value) == "order 2147483648 outside the 32-bit input range"

    def test_negative_exponents_name_the_first(self):
        with pytest.raises(ValueError) as err:
            validate_exponent_vector((1, -2, -3))
        assert str(err.value) == "exponent entries must be nonnegative, got -2"
        with pytest.raises(ValueError) as err:
            order_of((0, -1, -5), (1, 1, 1))
        assert str(err.value) == "exponent entries must be nonnegative, got -1"

    def test_degrees_below_one_name_the_first(self):
        with pytest.raises(ValueError) as err:
            DegreeVector((2, 0, -1))
        assert str(err.value) == "degrees must be >= 1, got 0"

    @pytest.mark.parametrize("cls, what", [(OrderVector, "order"), (DegreeVector, "degree")])
    def test_an_empty_vector_is_refused(self, cls, what):
        with pytest.raises(ValueError) as err:
            cls(())
        assert str(err.value) == f"{what} vector must have rank >= 1"


class TestMembership:
    def test_examples(self):
        assert is_member_hol((1, 1), (1, -1)) is True
        assert is_member_hol((0, 1), (1, -1)) is False
        assert is_member_hol((1, 0), (-5, 2)) is False

    def test_monoid_closure(self):
        for v in BOX2:
            members = [k for k in EXP_BOX2 if is_member_hol(k, v)]
            for a in members:
                for b in members:
                    ab = tuple(x + y for x, y in zip(a, b))
                    assert is_member_hol(ab, v)

    def test_monotone_in_orders(self):
        # raising any order can only add members
        for v in BOX2:
            for j in range(2):
                w = list(v)
                w[j] += 1
                for k in EXP_BOX2:
                    if is_member_hol(k, v):
                        assert is_member_hol(k, w)

    def test_unique_unit(self):
        # a + b = 0 over N^r forces a = b = 0
        for a in EXP_BOX2:
            for b in EXP_BOX2:
                if all(x + y == 0 for x, y in zip(a, b)):
                    assert not any(a) and not any(b)


class TestDivisibility:
    def test_examples(self):
        assert divides_ar((1, 0), (2, 1)) is True
        assert divides_ar((1, 2), (2, 1)) is False
        assert divides_ar((3, 3), (3, 3)) is True

    def test_partial_order(self):
        pts = EXP_BOX2
        for a in pts:
            assert divides_ar(a, a)
        for a in pts:
            for b in pts:
                if divides_ar(a, b) and divides_ar(b, a):
                    assert a == b
                for c in pts:
                    if divides_ar(a, b) and divides_ar(b, c):
                        assert divides_ar(a, c)

    def test_divides_hol_examples(self):
        v = (1, -1)
        # derived: recompute the quotient's order directly
        for a, b, expected in [
            ((1, 0), (2, 1), True),
            ((1, 1), (2, 1), True),
            ((1, 0), (1, 1), False),
        ]:
            h = tuple(y - x for x, y in zip(a, b))
            assert (sum(x * w for x, w in zip(h, v)) >= 0) is expected
            assert divides_hol(a, b, v) is expected

    def test_divides_hol_implies_divides_ar(self):
        v = (2, -3)
        members = [k for k in EXP_BOX2 if is_member_hol(k, v)]
        for a in members:
            for b in members:
                if divides_hol(a, b, v):
                    assert divides_ar(a, b)

    def test_divides_hol_requires_membership(self):
        with pytest.raises(NotInHolError):
            divides_hol((0, 1), (1, 1), (1, -1))
        with pytest.raises(NotInHolError):
            divides_hol((1, 0), (0, 1), (1, -1))


class TestAdmissibility:
    def test_examples(self):
        ok, reasons = is_admissible(Instance((1, 1, 2), (1, -1, 0)))
        assert ok and reasons == ()
        ok, reasons = is_admissible(Instance((1, 1), (0, -1)))
        assert not ok and len(reasons) == 1
        ok, reasons = is_admissible(
            Instance((1, 1), (-1, 2), require_trivial_nonneg=True)
        )
        assert not ok and any("trivial" in r for r in reasons)

    def test_flags_off(self):
        ok, _ = is_admissible(Instance((1, 1), (0, -1), require_dedekind=False))
        assert ok

    def test_overflow_is_a_hard_error(self):
        # <d, v> skips validating the Instance's vectors again, not the
        # overflow checks: order_of's bound and checked loop still apply.
        with pytest.raises(ArithmeticOverflowError, match="leaves the 64-bit range"):
            is_admissible(Instance((2**40,), (2**30,)))
        # 2**33 * 2**30 = 2**63 is one past INT64_MAX
        with pytest.raises(ArithmeticOverflowError):
            is_admissible(Instance((2**33,) * 3, (2**30,) * 3))
        # each product 2**62 fits, the running sum of two does not
        with pytest.raises(ArithmeticOverflowError, match="accumulation"):
            is_admissible(Instance((2**32,) * 3, (2**30,) * 3))
        # with the Dedekind check off, no sum is taken
        assert is_admissible(Instance((2**40,), (2**30,), require_dedekind=False)) == (True, ())

    @pytest.mark.parametrize("r", range(1, 9))
    def test_dedekind_sum_at_the_fast_path_bound(self, r):
        # is_admissible takes <d, v> as the checked loop does, on both
        # sides of the bound between one pass and that loop.
        edge = INT64_MAX // (r * INT32_MAX)
        for top in (edge, edge + 1):
            for vj in (INT32_MAX, -INT32_MAX):
                d, v = (top,) * r, (vj,) * r
                s = _outcome(_checked_order, d, v)
                if isinstance(s, int):
                    s = (True, ()) if s >= 0 else (False, (f"dedekind:<d,v>={s}<0",))
                assert _outcome(is_admissible, Instance(d, v)) == s

    def test_dedekind_lemma(self):
        # <d,v> >= 0 with all degrees >= 1 forces v = 0 or some v_j > 0
        for d in [(1, 1), (1, 2), (3, 1)]:
            for v in BOX2:
                if sum(x * y for x, y in zip(d, v)) >= 0:
                    assert (not any(v)) or any(x > 0 for x in v)

    def test_rank_consistency(self):
        with pytest.raises(LengthMismatchError):
            Instance(
                degrees=DegreeVector((1, 1, 1)),
                orders=OrderVector((0, 0)),
            )
        with pytest.raises(LengthMismatchError):
            Instance((1, 1, 1), [0, 0])
        assert Instance((1, 1, 2), (0, 1, -1)).rank == 3

    def test_plain_sequences_are_converted(self):
        typed = Instance(DegreeVector((1, 1, 2)), OrderVector((0, 1, -1)), group="S3")
        assert Instance((1, 1, 2), (0, 1, -1), group="S3") == typed
        assert Instance(degrees=[1, 1, 2], orders=[0, 1, -1], group="S3") == typed
        assert Instance(DegreeVector((1, 1, 2)), [0, 1, -1], group="S3") == typed
        inst = Instance([1, 1, 2], [0, 1, -1])
        assert type(inst.degrees) is DegreeVector and type(inst.orders) is OrderVector

    @pytest.mark.parametrize(
        "degrees, orders",
        [(5, (0,)), ((1,), None), ((1, 1), (0, 1.0)), ((1, True), (0, 0)), (("1",), (0,))],
    )
    def test_a_field_not_a_sequence_of_ints_is_a_type_error(self, degrees, orders):
        # A non-sequence is named whole, a sequence by its first non-int.
        shapes = "must be a sequence of ints|entries must be ints"
        with pytest.raises(TypeError, match=rf"^(degree|order) vector ({shapes}), got "):
            Instance(degrees, orders)

    def test_s0_label_is_opaque(self):
        inst = Instance((1, 1), (0, 0), s0_label="1/2+3i")
        assert inst.s0_label == "1/2+3i"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("require_dedekind", 1),
            ("require_trivial_nonneg", None),
            ("group", 5),
            ("s0_label", b"s0"),
        ],
    )
    def test_flags_are_bools_and_labels_strings(self, field, value):
        with pytest.raises(TypeError, match=field):
            Instance((1, 1), (0, 0), **{field: value})


class TestDegreeVector:
    def test_degrees_at_least_one(self):
        with pytest.raises(ValueError):
            DegreeVector((1, 0))


# One value of each of the package's nine value types, built afresh on
# each call; its repr, pinned as the frozen dataclasses these types once
# were printed it; its fields in constructor order; and a change that
# _replace must refuse, with the error and message the constructor gives,
# or None for a type that checks nothing.
VALUES = {
    "OrderVector": (
        lambda: OrderVector((1, -2)),
        "OrderVector(entries=(1, -2))",
        ("entries",),
        ({"entries": ()}, ValueError, "order vector must have rank >= 1"),
    ),
    "DegreeVector": (
        lambda: DegreeVector((1, 1, 2)),
        "DegreeVector(entries=(1, 1, 2))",
        ("entries",),
        ({"entries": (1, 0)}, ValueError, "degrees must be >= 1, got 0"),
    ),
    "Instance": (
        lambda: Instance((1, 1, 2), (1, -1, 0), group="S3", s0_label="s0"),
        "Instance(degrees=DegreeVector(entries=(1, 1, 2)), orders=OrderVector(entries=(1, -1, 0)),"
        " require_dedekind=True, require_trivial_nonneg=False, group='S3', s0_label='s0')",
        ("degrees", "orders", "require_dedekind", "require_trivial_nonneg", "group", "s0_label"),
        ({"orders": (1, -1)}, LengthMismatchError, "degrees 3 vs orders 2"),
    ),
    "HilbertBasis": (
        lambda: cross_checked_basis((2, -3)),
        "HilbertBasis(elements=((1, 0), (2, 1), (3, 2)), source_engine='oracle')",
        ("elements", "source_engine"),
        ({"source_engine": "lattice"}, ValueError, "unknown engine tag 'lattice'"),
    ),
    "SubsetSelector": (
        lambda: SubsetSelector((1, 3)),
        "SubsetSelector(indices=(1, 3))",
        ("indices",),
        ({"indices": (3, 1)}, InvalidSubsetError, "subset indices must be strictly increasing"),
    ),
    "ConditionReport": (
        lambda: check_instance(Instance((1, 1), (1, -1))),
        "ConditionReport(instance=Instance(degrees=DegreeVector(entries=(1, 1)),"
        " orders=OrderVector(entries=(1, -1)), require_dedekind=True,"
        " require_trivial_nonneg=False, group=None, s0_label=None), admissible_reasons=(),"
        " hilbert_elements=((1, 0), (1, 1)), factorial=True, cond_i=False, cond_ii=False,"
        " cond_ii_rows=((PairWitness(k=1, l=2, witness=(1, 0)),),"
        " (PairWitness(k=2, l=1, witness=None),)), cond_iii_m=None, cond_ii_prime=False,"
        " cond_ii_prime_failing=(2,))",
        (
            "instance",
            "admissible_reasons",
            "hilbert_elements",
            "factorial",
            "cond_i",
            "cond_ii",
            "cond_ii_rows",
            "cond_iii_m",
            "cond_ii_prime",
            "cond_ii_prime_failing",
        ),
        None,
    ),
    "SweepPlan": (
        lambda: SweepPlan((1, 1, 2), 2, out_path="out.jsonl", group="S3"),
        "SweepPlan(degrees=DegreeVector(entries=(1, 1, 2)), order_bound=2, require_dedekind=True,"
        " require_trivial_nonneg=False, worker_count=1, out_path='out.jsonl', group='S3')",
        (
            "degrees",
            "order_bound",
            "require_dedekind",
            "require_trivial_nonneg",
            "worker_count",
            "out_path",
            "group",
        ),
        ({"order_bound": 0}, ValueError, "order bound must be >= 1"),
    ),
    "SweepSummary": (
        lambda: summarize(sweep_reports(SweepPlan((1, 1), 1, require_dedekind=False))),
        "SweepSummary(total=9, cond_i_true=4, factorial_not_i=2,"
        " hilbert_histogram=((0, 1), (1, 2), (2, 6)), counterexamples=())",
        ("total", "cond_i_true", "factorial_not_i", "hilbert_histogram", "counterexamples"),
        None,
    ),
    "GroupEntry": (
        lambda: get_group("S3"),
        "GroupEntry(name='S3', order=6, degrees=DegreeVector(entries=(1, 1, 2)))",
        ("name", "order", "degrees"),
        None,
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type_contract(name):
    make, text, fields, refused = VALUES[name]
    value, twin = make(), make()
    assert type(value).__name__ == name and repr(value) == text
    values = tuple(getattr(value, f) for f in fields)
    # equality within the class only, field by field, and hashing to match
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert value != values and values != value
    assert type(value)(*values) == value
    if name in ("OrderVector", "DegreeVector"):  # one field of one value, two classes
        assert OrderVector((1,)) != DegreeVector((1,)) and DegreeVector((1,)) != OrderVector((1,))
        assert OrderVector((1,)) != (1,) and DegreeVector((1,)) != ((1,),)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, getattr(value, f))
        with pytest.raises(AttributeError):
            delattr(value, f)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert value == twin
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value and hash(back) == hash(value)
    assert repr(back) == text
    # _replace keeps the unchanged fields and builds through the constructor
    assert value._replace() == value and value._replace() is not value
    last = fields[-1]
    assert value._replace(**{last: getattr(twin, last)}) == value
    with pytest.raises(TypeError):
        value._replace(unknown=1)
    if refused is not None:
        change, error, message = refused
        with pytest.raises(error) as err:
            value._replace(**change)
        assert str(err.value) == message
