"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from subspace_hilbert.arrangement import Arrangement
from closed_form_reference import span_of
from subspace_hilbert.linalg import SubspaceBasis

_rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


@st.composite
def arrangements(draw, max_n: int = 4, max_m: int = 3):
    """Arrangements with non-integral rational bases, zero subspaces,
    repeated subspaces and pencils (members sharing a common subspace)."""
    n = draw(st.integers(1, max_n))
    vector = st.lists(_rationals, min_size=n, max_size=n)
    core = draw(st.lists(vector, max_size=max(0, n - 2)))
    subspaces: list[SubspaceBasis] = []
    for _ in range(draw(st.integers(1, max_m))):
        kind = draw(st.sampled_from(["span", "pencil", "zero", "repeat"]))
        if kind == "zero":
            s = SubspaceBasis(n)
        elif kind == "repeat" and subspaces:
            s = draw(st.sampled_from(subspaces))
        elif kind == "pencil":
            s = span_of(n, core + [draw(vector)])
        else:
            s = span_of(n, draw(st.lists(vector, max_size=n - 1)))
        assume(s.dim < n)
        subspaces.append(s)
    return Arrangement(n, subspaces)
