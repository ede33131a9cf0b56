"""Seeded input generator for the three benchmark workloads.

Every item is written in the program's own file formats (arrangement or
point-cloud JSON, rationals as strings) and carries the argument vectors the
benchmark passes to ``cli.main``, one per instance, plus the ground truth
its output is checked against.  The generator is self-contained: it does its
own exact rank computations, so a change to the package cannot change the
inputs.

The shape of each item (ambient dimension, subspace dimensions, kind) is a
fixed list per workload; the seed draws the entries of INSTANCES instances
of every shape.  Generic draws that are not transversal, and closed-form
draws that are not in general position for their kind, are drawn again.
Fixing the shapes keeps the run-to-run spread of the workload times small
while every seed still gives fresh instances.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WHY = {
    "closed-form": (
        "analyze --json on Q^12 arrangements, a ladder of m; time goes to "
        "dimension_function and compute_ps_family; half generic (transversal, "
        "mostly saturated masks), half degenerate (common line and hyperplane, "
        "no saturated mask)"
    ),
    "oracle-crosscheck": (
        "analyze --json --oracle in Q^3..Q^5, m = 2..4, dimensions drawn as in "
        "the Tier-1 suite plus one pencil per (n, m); time goes to the oracle "
        "and its wide IntEchelon matrices, heavy-tailed"
    ),
    "recover-points": (
        "recover --points on exact rational clouds from transversal "
        "arrangements; tall big-int evaluation matrices in IntEchelon and "
        "Fraction row building, larger files to parse"
    ),
}

CLOSED_FORM_N = 12

# Rungs of the closed-form ladder: (generic dims, degenerate dims, instances
# of each).  Generic dimensions leave 60-90 % of the masks saturated (codim
# n); degenerate items have none.  The m = 4 rung holds 12 of the 16 items,
# so the median and the item_tail_s item (the 8th and 6th of 16) both fall
# inside it.  m = 6 is the largest rung that keeps one pass near 10 s.
CLOSED_FORM_LADDER = [
    ([4, 6, 5, 7], [5, 3, 8, 6], 6),
    ([5, 4, 7, 6, 5], [4, 7, 3, 9, 6], 1),
    ([4, 6, 5, 7, 5, 6], [6, 4, 8, 3, 7, 5], 1),
]

# The oracle cross-check follows the Tier-1 acceptance suite: its random
# arrangements draw n, m and every subspace dimension uniformly (dimensions
# in 0..n-1).  Restricted to n = 3..5 and m = 2..4, each of the nine (n, m)
# cells gets ORACLE_PER_CELL generic items with dimensions drawn uniformly,
# plus one pencil: subspaces of dimension 1..n-1 through one common line,
# with codimensions adding up to at least n, so it is never transversal.
# The shapes are drawn once from a fixed seed; the run seed draws the
# entries.  Item costs span 10 ms to a few seconds, most of the time going
# to the n = 5, m = 4 cell.
ORACLE_CELLS = [(n, m) for n in (3, 4, 5) for m in (2, 3, 4)]
ORACLE_PER_CELL = 6


def _oracle_shapes() -> list[tuple[int, list[int], str]]:
    rng = random.Random("oracle-crosscheck shapes")
    shapes = []
    for n, m in ORACLE_CELLS:
        for _ in range(ORACLE_PER_CELL):
            shapes.append((n, [rng.randint(0, n - 1) for _ in range(m)], "generic"))
        while True:
            dims = [rng.randint(1, n - 1) for _ in range(m)]
            if sum(n - k for k in dims) >= n:
                break
        shapes.append((n, dims, "degenerate"))
    return shapes


# Heaviest cells first: the partial pass at the end of a run then gives the
# items that run a single instance per pass a second instance.
ORACLE_SHAPES = _oracle_shapes()[::-1]

ORACLE_MAX_DEGREE = max(len(dims) for _, dims, _ in ORACLE_SHAPES) + 3

# (n, subspace dimensions) for point recovery; every item is transversal.
# A chosen mix, not a traffic draw: uniform draws over these ranges include
# n = 5, m = 4 items with 3-dimensional components that take 10-50 s each.
# Light items, a run of similar-cost shapes holding both the median and the
# item_tail_s item, a heavier top.
RECOVER_SHAPES = [
    (3, [1]),
    (3, [1, 2]),
    (3, [2, 1, 1, 2]),
    (4, [2]),
    (4, [1, 2, 1]),
    (5, [1, 2, 1]),
] + [
    (4, [2, 2, 3]),
    (5, [1, 1, 1, 2]),
] * 6 + [
    (5, [1, 3]),
] * 4

ENTRY_RANGE = 3

# Instances of every item shape per seed.  Successive passes of a run cycle
# through them and an item's time is its median over the passes, so the
# entries of a single draw weigh less in the reported times.
INSTANCES = 3


# ---------------------------------------------------------------------------
# exact helpers (independent of the package under test)

def annihilator(basis: list[list[int]], n: int) -> list[list[Fraction]]:
    """Rows spanning the linear forms that vanish on span(basis)."""
    work = [[Fraction(x) for x in r] for r in basis]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        work[r] = [x / lead for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    forms = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for row, p in enumerate(pivots):
            v[p] = -work[row][free]
        forms.append(v)
    return forms


def rank(rows: list[list]) -> int:
    n = len(rows[0])
    return n - len(annihilator(rows, n))


def intersection_dims(bases: list[list[list[int]]], n: int) -> list[int]:
    """dim of the intersection of the chosen subspaces, for masks 1..2^m - 1."""
    forms = [annihilator(b, n) for b in bases]
    return [
        n - rank([row for i, f in enumerate(forms) if mask >> i & 1 for row in f])
        for mask in range(1, 1 << len(bases))
    ]


def expected_dims(dims: list[int], n: int, common_line: bool = False) -> list[int]:
    """The intersection dimensions of a general choice of subspaces.

    With ``common_line`` every subspace contains one line and lies in one
    hyperplane; the rest is general inside the hyperplane modulo the line.
    """
    out = []
    for mask in range(1, 1 << len(dims)):
        chosen = [k for i, k in enumerate(dims) if mask >> i & 1]
        if common_line:
            out.append(1 + max(0, n - 2 - sum(n - 1 - k for k in chosen)))
        else:
            out.append(max(0, n - sum(n - k for k in chosen)))
    return out


def is_transversal(bases: list[list[list[int]]], n: int) -> bool:
    return intersection_dims(bases, n) == expected_dims([len(b) for b in bases], n)


# ---------------------------------------------------------------------------
# random subspaces

def _random_vector(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(n)]


def generic_basis(rng: random.Random, n: int, k: int) -> list[list[int]]:
    if k == 0:
        return []
    while True:
        rows = [_random_vector(rng, n) for _ in range(k)]
        if rank(rows) == k:
            return rows


def _in_hyperplane(rng: random.Random, h: list[int]) -> list[int]:
    """A random integer vector w with h . w = 0 (h[-1] is 1)."""
    head = _random_vector(rng, len(h) - 1)
    return head + [-sum(a * b for a, b in zip(h, head))]


def degenerate_bases(
    rng: random.Random, n: int, dims: list[int], hyperplane: bool
) -> list[list[list[int]]]:
    """Subspaces through one common line; inside one common hyperplane too
    when asked (then every dimension must stay below n - 1)."""
    h = _random_vector(rng, n - 1) + [1] if hyperplane else None

    def draw() -> list[int]:
        return _in_hyperplane(rng, h) if h else _random_vector(rng, n)

    line = draw()
    while not any(line):
        line = draw()
    bases = []
    for k in dims:
        while True:
            rows = [line] + [draw() for _ in range(k - 1)]
            if rank(rows) == k:
                bases.append(rows)
                break
    return bases


def arrangement_doc(n: int, bases: list[list[list[int]]], name: str) -> dict:
    return {
        "n": n,
        "name": name,
        "subspaces": [[[str(x) for x in v] for v in b] for b in bases],
    }


# ---------------------------------------------------------------------------
# point clouds

def lattice_exponents(k: int, total: int):
    """All alpha in N^k with |alpha| = total."""
    if k == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in lattice_exponents(k - 1, total - first):
            yield (first,) + rest


def cloud_points(
    rng: random.Random, basis: list[list[int]], top_degree: int
) -> list[list[Fraction]]:
    """Points B.alpha for every alpha in N^k with |alpha| = top_degree, then
    as many random combinations of the basis with coefficients in -9..9.

    The lattice points are C(top_degree + k - 1, k - 1) pairwise distinct rays
    and unisolvent for forms of every degree up to top_degree on the span of
    B, so the evaluation rank equals the true graded dimension by
    construction; the random points only add rows.  Each point is scaled by a
    random nonzero rational, which keeps its ray.
    """
    n = len(basis[0])
    coefficients = list(lattice_exponents(len(basis), top_degree))
    for _ in range(len(coefficients)):
        alpha = [0] * len(basis)
        while not any(alpha):
            alpha = [rng.randint(-9, 9) for _ in basis]
        coefficients.append(tuple(alpha))
    points = []
    for alpha in coefficients:
        point = [sum(a * row[j] for a, row in zip(alpha, basis)) for j in range(n)]
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        points.append([scale * x for x in point])
    return points


def ray(point: list[Fraction]) -> tuple[int, ...]:
    """The primitive integer vector with positive leading entry on the ray."""
    den = math.lcm(*(x.denominator for x in point))
    ints = [int(x * den) for x in point]
    g = math.gcd(*ints)
    sign = 1 if next(x for x in ints if x) > 0 else -1
    return tuple(sign * x // g for x in ints)


def required_rays(n: int, m: int, k: int) -> int:
    """Distinct rays a k-dimensional component needs for degrees up to m+n-1."""
    return math.comb(m + n - 1 + k - 1, k - 1)


# ---------------------------------------------------------------------------
# workloads

def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def closed_form(rng: random.Random, out: Path) -> list[dict]:
    n = CLOSED_FORM_N
    shapes = [
        (kind, dims)
        for generic, degenerate, count in CLOSED_FORM_LADDER
        for _ in range(count)
        for kind, dims in (("generic", generic), ("degenerate", degenerate))
    ]
    items = []
    for idx, (kind, dims) in enumerate(shapes):
        # redraw until the intersections are those of a general choice, so
        # the report depends on the shape alone and one digest fits every seed
        expected = expected_dims(dims, n, common_line=kind == "degenerate")
        while True:
            if kind == "generic":
                bases = [generic_basis(rng, n, k) for k in dims]
            else:
                bases = degenerate_bases(rng, n, dims, hyperplane=True)
            if intersection_dims(bases, n) == expected:
                break
        m = len(dims)
        name = f"cf-{idx:02d}"
        path = out / f"{name}.json"
        _write(path, arrangement_doc(n, bases, f"closed-form {kind} m={m}"))
        items.append({
            "id": name, "kind": kind, "class": f"{kind} m={m}",
            "argv": ["analyze", str(path), "--json"],
            "truth": {"n": n, "m": m, "dims": dims, "common_line": kind == "degenerate"},
        })
    return items


def oracle_crosscheck(rng: random.Random, out: Path) -> list[dict]:
    items = []
    for idx, (n, dims, kind) in enumerate(ORACLE_SHAPES):
        if kind == "generic":
            while True:
                bases = [generic_basis(rng, n, k) for k in dims]
                if is_transversal(bases, n):
                    break
        else:
            bases = degenerate_bases(rng, n, dims, hyperplane=False)
        name = f"oc-{idx:02d}"
        path = out / f"{name}.json"
        _write(path, arrangement_doc(n, bases, f"oracle {kind} n={n} dims={dims}"))
        pencil = " pencil" if kind == "degenerate" else ""
        items.append({
            "id": name, "kind": kind, "class": f"n={n} m={len(dims)}{pencil}",
            "argv": ["analyze", str(path), "--json", "--oracle"],
            "truth": {"n": n, "m": len(dims), "dims": dims},
        })
    return items


def recover_points(rng: random.Random, out: Path) -> list[dict]:
    items = []
    for idx, (n, dims) in enumerate(RECOVER_SHAPES):
        m = len(dims)
        while True:
            bases = [generic_basis(rng, n, k) for k in dims]
            if is_transversal(bases, n):
                break
        points = []
        for basis in bases:
            own = cloud_points(rng, basis, m + n - 1)
            if len({ray(p) for p in own}) < required_rays(n, m, len(basis)):
                raise AssertionError("cloud has too few rays on a component")
            points.extend(own)
        rng.shuffle(points)
        name = f"rp-{idx:02d}"
        path = out / f"{name}.json"
        _write(path, {"n": n, "points": [[str(x) for x in p] for p in points]})
        items.append({
            "id": name, "kind": "generic", "class": f"n={n} m={m}",
            "argv": ["recover", "--points", str(path), "--m", str(m), "--json"],
            "truth": {"n": n, "m": m, "dims": sorted(dims), "transversal": True},
        })
    return items


GENERATORS = {
    "closed-form": closed_form,
    "oracle-crosscheck": oracle_crosscheck,
    "recover-points": recover_points,
}


def generate(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the workload's files under ``out`` and return its item list.

    Each item has INSTANCES instances of its shape, drawn one after another
    from the seed; ``argvs`` holds their argument vectors.
    """
    rng = random.Random(f"{workload}:{seed}")
    drawn = []
    for k in range(INSTANCES):
        folder = out / str(k)
        folder.mkdir(parents=True, exist_ok=True)
        drawn.append(GENERATORS[workload](rng, folder))
    for first, *others in zip(*drawn):
        if any(other["truth"] != first["truth"] for other in others):
            raise AssertionError(f"instances of {first['id']} differ in shape")
        first["argvs"] = [first.pop("argv")] + [other["argv"] for other in others]
    return drawn[0]
