import pytest

from rewbench.catalog import (
    LISTED_MN,
    build_dehn_example,
    build_mn,
    family_index,
    get_entry,
    list_catalog,
)
from rewbench.completion import check_local_confluence
from rewbench.core import ZERO, dump_presentation, parse_presentation


def test_listing_names_and_count():
    names = [e.name for e in list_catalog()]
    assert names == [f"M{i}" for i in range(1, LISTED_MN + 1)] + ["dehn-example"]


def test_family_index_parses_family_names_only():
    names = ["M1", "M17", "M01", "M0", "M", "m2", "M2a", "dehn-example"]
    assert [family_index(n) for n in names] == [1, 17, 1, None, None, None,
                                                None, None]


def test_mn_relations_exact():
    p = build_mn(2).presentation
    assert p.alphabet.letters == "abcd"
    assert p.relations == (
        ("aab", ZERO), ("ac", ""), ("db", ""), ("dc", ""), ("dab", ""))
    assert build_mn(1).presentation.relations == (
        ("ab", ZERO), ("ac", ""), ("db", ""), ("dc", ""))
    assert len(build_mn(5).presentation.relations) == 4 + 4


def test_dehn_example_relations_exact():
    entry = build_dehn_example()
    assert entry.precedence == "bacd"
    assert entry.presentation.relations == (
        ("ab", "ba"), ("cbad", ""), ("cbb", ""), ("aad", ""),
        ("cad", ZERO), ("cbd", ZERO), ("cd", ""))


def test_every_listed_entry_is_complete():
    for entry in list_catalog():
        report = check_local_confluence(entry.system)
        assert report.terminating, entry.name
        assert report.locally_confluent, entry.name


def test_get_entry_uncapped_family_index():
    entry = get_entry("M17")
    assert len(entry.presentation.relations) == 4 + 16
    assert len(entry.system.rules) == 4 + 16


def test_build_mn_is_memoized_with_its_system():
    entry = build_mn(7)
    system = entry.system
    assert get_entry("M7") is entry and build_mn(7).system is system
    for _ in range(2):
        with pytest.raises(ValueError):
            build_mn(0)


def test_get_entry_unknown_name():
    with pytest.raises(KeyError):
        get_entry("M0")
    with pytest.raises(KeyError):
        get_entry("nope")


def test_dump_parse_round_trip_for_catalog():
    for entry in list_catalog():
        p = entry.presentation
        again = parse_presentation(dump_presentation(p))
        assert again.alphabet.letters == p.alphabet.letters
        assert again.relations == p.relations


def test_provenance_strings_present():
    for entry in list_catalog():
        assert entry.provenance
