"""Catalog data: shipped entries validate; corrupted ones report reasons."""

from __future__ import annotations

import pytest

from artinhol import DegreeVector, GroupEntry, catalog_groups, get_group, validate_catalog_entry


def test_twelve_entries_shipped():
    groups = catalog_groups()
    assert len(groups) == 12
    names = [g.name for g in groups]
    assert len(set(names)) == 12
    for required in ["C1", "C2", "C3", "C4", "V4", "S3", "Q8", "D4", "A4", "S4", "A5", "S5"]:
        assert required in names


def test_every_entry_validates():
    for entry in catalog_groups():
        ok, reasons = validate_catalog_entry(entry)
        assert ok, (entry.name, reasons)


def test_degrees_sorted_nondecreasing():
    for entry in catalog_groups():
        d = entry.degrees.entries
        assert list(d) == sorted(d)
        assert d[0] == 1  # the trivial character comes first


def test_lookups():
    s3 = get_group("S3")
    assert s3.degrees.entries == (1, 1, 2)
    assert s3.order == 6
    assert s3.class_count == 3  # one irreducible character per class
    a5 = get_group("A5")
    assert a5.degrees.entries == (1, 3, 3, 4, 5)
    assert sum(d * d for d in a5.degrees.entries) == 60
    c1 = get_group("C1")
    assert c1.degrees.entries == (1,)
    assert c1.order == 1
    with pytest.raises(KeyError):
        get_group("M11")


def test_corrupted_sum_of_squares():
    bad = GroupEntry("X", 6, DegreeVector((1, 1, 3)))
    ok, reasons = validate_catalog_entry(bad)
    assert not ok
    assert any("sum of squares 11" in r for r in reasons)


def test_unsorted_degrees():
    bad = GroupEntry("Z", 6, DegreeVector((2, 1, 1)))
    assert validate_catalog_entry(bad) == (False, ("degrees not sorted nondecreasing",))


def test_corrupted_divisibility():
    bad = GroupEntry("Y", 17, DegreeVector((1, 4)))
    ok, reasons = validate_catalog_entry(bad)
    assert not ok
    assert any("4 does not divide 17" in r for r in reasons)

