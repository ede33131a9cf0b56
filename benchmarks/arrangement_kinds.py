"""Seeded arrangements of three kinds, for scaling runs and cap tests.

- ``generic``: random integer bases of dimensions n//3 .. 2n//3; almost every
  mask of a large arrangement is saturated (codim n).
- ``degenerate``: every subspace (dimension 2 .. n-3) contains one common
  line and lies in one common hyperplane, so no mask is saturated and the
  codims of the masks stop at n - 1.
- ``hyperplanes``: m random hyperplanes; a mask reaches codim n only when it
  holds n of them, so with m = 16 and n = 12 about 96 % of the masks stay
  below the rank of all the forms.

``pencil`` builds subspaces of given dimensions through one common line,
the arrangements whose product and intersection ideals differ in every
degree.

An arrangement depends on (kind, n, m, seed), or (n, dims, seed), alone and
uses only
``random_arrangement``, ``Arrangement`` and ``SubspaceBasis``, which raises
ValueError on dependent rows, so two source trees can be measured on the
same inputs.
"""

from __future__ import annotations

import random

from subspace_hilbert import Arrangement, SubspaceBasis, random_arrangement

KINDS = ("generic", "degenerate", "hyperplanes")


def build(kind: str, n: int, m: int, seed: int) -> Arrangement:
    """The seeded arrangement of m subspaces of Q^n of the given kind."""
    rng = random.Random(seed)
    if kind == "generic":
        dims = [rng.randint(n // 3, 2 * n // 3) for _ in range(m)]
        return random_arrangement(n, dims, rng.randrange(10**9))
    if kind == "hyperplanes":
        return random_arrangement(n, [n - 1] * m, rng.randrange(10**9))
    if kind != "degenerate":
        raise ValueError(f"unknown arrangement kind {kind!r}")
    h = [rng.randint(-3, 3) for _ in range(n - 1)] + [1]

    def in_hyperplane() -> list[int]:
        head = [rng.randint(-3, 3) for _ in range(n - 1)]
        return head + [-sum(a * b for a, b in zip(h, head))]

    line = in_hyperplane()
    while not any(line):
        line = in_hyperplane()
    subspaces = []
    for _ in range(m):
        k = rng.randint(2, n - 3)
        while True:
            rows = [line] + [in_hyperplane() for _ in range(k - 1)]
            try:
                subspaces.append(SubspaceBasis(n, rows))
            except ValueError:  # dependent rows: draw again
                continue
            break
    return Arrangement(n, subspaces)


def pencil(n: int, dims: list[int], seed: int) -> Arrangement:
    """Seeded subspaces of Q^n of dimensions dims (each 1 .. n-1) through one
    common line, entries in -3..3."""
    rng = random.Random(seed)

    def vector() -> list[int]:
        return [rng.randint(-3, 3) for _ in range(n)]

    line = vector()
    while not any(line):
        line = vector()
    subspaces = []
    for k in dims:
        while True:
            try:
                subspaces.append(SubspaceBasis(n, [line] + [vector() for _ in range(k - 1)]))
            except ValueError:  # dependent rows: draw again
                continue
            break
    return Arrangement(n, subspaces)
