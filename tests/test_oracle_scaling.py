"""Smoke test of benchmarks/oracle_scaling.py: its spies still see the
oracle functions they label the closings by, so a rename fails here
instead of mislabelling a recorded benchmark."""

import json

import pytest

import arrangement_kinds
import oracle_scaling
from subspace_hilbert.fixtures import fixture_arrangement
from subspace_hilbert.oracle import hilbert_table


def table_digest(arr) -> str:
    table = hilbert_table(arr, oracle_scaling.D_MAX)
    return oracle_scaling.digest([[r.dim_I, r.dim_J] for r in table])


def recorded_digests(case: str) -> set[str]:
    doc = json.loads(oracle_scaling.DEFAULT_OUT.read_text())
    return {
        entry["per_degree"][case]["table_sha256"]
        for entry in doc.values()
        if isinstance(entry, dict) and case in entry.get("per_degree", {})
    }


@pytest.mark.parametrize(
    "arr, case, I, J, steps",
    [
        # a 3-space and a plane through a common line in Q^5: I and J differ
        # from degree 1 on, J_1 = 0 and J closes by the standard rows beside
        # the jets from m = 2 on; I takes exact kernels up to m, and the
        # standard rows off their multiples close it above
        (
            arrangement_kinds.pencil(5, [3, 2], oracle_scaling.SEED),
            "m=2 pencil",
            ["bracket"] + ["exact"] * 2 + ["standard rows"] * 6,
            ["bracket", "degree"] + ["standard rows"] * 7,
            ["none"] + ["eliminate"] * 2 + ["count"] * 6,
        ),
        # transversal: I = J from m on, where the standard rows off J's
        # leads close I, and every J step above m closes by count
        (
            fixture_arrangement("three-coordinate-axes"),
            None,
            ["bracket"] * 3 + ["standard rows"] * 6,
            ["bracket", "bracket", "degree"] + ["bracket"] * 6,
            ["none"] + ["eliminate"] * 3 + ["count"] * 5,
        ),
    ],
    ids=["pencil", "three-coordinate-axes"],
)
def test_closing_labels_and_digest(arr, case, I, J, steps):
    labels = oracle_scaling.closing(arr)
    assert labels == (I, J, steps, table_digest(arr))
    if case is not None:
        assert recorded_digests(case) == {labels[3]}
