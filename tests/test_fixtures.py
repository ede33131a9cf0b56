"""Tests for the shipped example arrangements."""

import json

import pytest

from subspace_hilbert.arrangement import dimension_function, is_transversal
from subspace_hilbert.cli import render_json
from subspace_hilbert.fixtures import (
    fixture_arrangement,
    fixture_names,
    fixture_path,
    fixture_text,
)
from subspace_hilbert.hilbert import hilbert_series_J


def test_four_fixtures():
    assert len(fixture_names()) == 4


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        fixture_arrangement("no-such-fixture")
    with pytest.raises(ValueError):
        fixture_path("no-such-fixture")


def test_names_match_shipped_files():
    data = fixture_path(fixture_names()[0]).parent
    assert {path.stem for path in data.glob("*.json")} == set(fixture_names())


@pytest.mark.parametrize("name", fixture_names())
def test_shipped_file_is_canonical(name):
    doc = json.loads(fixture_text(name))
    assert fixture_text(name) == render_json(doc)
    assert doc["name"]


def test_transversality_flags():
    flags = {
        name: is_transversal(dimension_function(fixture_arrangement(name)))
        for name in fixture_names()
    }
    assert flags == {
        "three-coordinate-axes": True,
        "three-coplanar-lines": True,
        "three-axis-planes": False,
        "three-pencil-planes": False,
    }


def test_paired_fixtures_share_product_series():
    # each ambient dimension carries a pair with equal dimension functions
    for first, second in [
        ("three-coordinate-axes", "three-coplanar-lines"),
        ("three-axis-planes", "three-pencil-planes"),
    ]:
        hs_first = hilbert_series_J(
            dimension_function(fixture_arrangement(first))
        )
        hs_second = hilbert_series_J(
            dimension_function(fixture_arrangement(second))
        )
        assert hs_first == hs_second
