"""Acceptance suite: every advertised behavior, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
criterion checks exact equalities (no tolerances anywhere) and, where stated,
a wall-clock budget.  The random suites are fully seeded, so every run checks
the same instances.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import pytest

from subspace_hilbert.arrangement import (
    Arrangement,
    DimensionFunction,
    dimension_function,
    is_transversal,
    random_arrangement,
)
from subspace_hilbert.fixtures import fixture_arrangement
from subspace_hilbert.gpca import (
    end_to_end_recover,
    estimate_hilbert_value,
    recover_codimensions,
    sample_points,
)
from subspace_hilbert.hilbert import (
    HilbertSeriesJ,
    betti_numbers,
    compute_ps_family,
    hilbert_polynomial_from_numerator,
    hilbert_series_J,
    is_series_difference_polynomial,
    transversal_hilbert_function,
    transversal_series,
)
from subspace_hilbert.oracle import hilbert_table
from subspace_hilbert.ratpoly import (
    QPoly,
    expand_rational,
    fit_numerator,
    poly_mod_one_minus_t_pow,
)

SUITE_SEED = 9001
SUITE_SIZE = 50


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    """Collect failure messages; print exactly one PASS/FAIL line."""
    failures: list[str] = []
    start = time.perf_counter()
    try:
        yield failures
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"criterion {num}: FAIL ({elapsed:.2f}s) {description}")
        raise
    elapsed = time.perf_counter() - start
    over_budget = budget is not None and elapsed > budget
    status = "FAIL" if failures or over_budget else "PASS"
    print(f"criterion {num}: {status} ({elapsed:.2f}s) {description}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])
    assert not over_budget, (
        f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    )


def check(failures: list[str], condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


@dataclass
class Instance:
    idx: int
    arr: Arrangement
    df: DimensionFunction
    hs: HilbertSeriesJ
    transversal: bool

    @property
    def n(self) -> int:
        return self.arr.ambient_dim

    @property
    def m(self) -> int:
        return self.arr.num_subspaces


class Suite:
    """The shared 50-instance random suite with lazily cached oracle tables."""

    def __init__(self):
        self._instances: list[Instance] | None = None
        self._tables: dict[int, list] = {}
        self._deep_tables: dict[int, list] = {}

    def instances(self) -> list[Instance]:
        if self._instances is None:
            rng = random.Random(SUITE_SEED)
            out = []
            for idx in range(SUITE_SIZE):
                n = rng.randint(2, 5)
                m = rng.randint(1, 4)
                dims = [rng.randint(0, n - 1) for _ in range(m)]
                arr = random_arrangement(n, dims, seed=rng.randrange(10**9))
                df = dimension_function(arr)
                out.append(
                    Instance(idx, arr, df, hilbert_series_J(df), is_transversal(df))
                )
            self._instances = out
        return self._instances

    def table(self, inst: Instance) -> list:
        """Oracle rows for d = 0..min(6, m+3)."""
        if inst.idx not in self._tables:
            self._tables[inst.idx] = hilbert_table(inst.arr, min(6, inst.m + 3))
        return self._tables[inst.idx]

    def deep_table(self, inst: Instance) -> list:
        """Oracle rows for d = 0..max(6, m+n-1), enough to fit numerators."""
        if inst.idx not in self._deep_tables:
            self._deep_tables[inst.idx] = hilbert_table(
                inst.arr, max(6, inst.m + inst.n - 1)
            )
        return self._deep_tables[inst.idx]


@pytest.fixture(scope="module")
def suite() -> Suite:
    return Suite()


def test_criterion_1_coordinate_axes_goldens():
    with criterion(1, "coordinate-axes goldens", budget=1.0) as failures:
        arr = fixture_arrangement("three-coordinate-axes")
        df = dimension_function(arr)
        family = compute_ps_family(df)
        for mask in (1, 2, 4):
            check(failures, family.p(mask) == QPoly.of(2, -1), f"p_{mask}")
        for mask in (3, 5, 6):
            check(failures, family.p(mask) == QPoly.of(4, -4, 1), f"p_{mask}")
        check(failures, family.top == QPoly.of(7, -9, 3), "p_top")
        hs = hilbert_series_J(df)
        check(
            failures,
            hs.numerator == QPoly.of(0, 0, 0, 7, -9, 3) and hs.n == 3,
            f"series {hs}",
        )
        check(failures, betti_numbers(hs).betti == (7, 9, 3), "Betti numbers")
        check(failures, is_transversal(df), "transversality")
        hp = hs.hilbert_polynomial()
        check(
            failures,
            hp.coeffs == QPoly.of(Fraction(-2), Fraction(3, 2), Fraction(1, 2)),
            f"Hilbert polynomial {hp}",
        )
        check(
            failures,
            all(hp(d) == Fraction(d * d + 3 * d - 4, 2) for d in range(3, 12)),
            "Hilbert polynomial values",
        )
        table = hilbert_table(arr, 5)
        check(
            failures,
            [r.dim_I for r in table] == [0, 0, 3, 7, 12, 18],
            "intersection table",
        )
        check(
            failures,
            [r.dim_J for r in table] == [0, 0, 0, 7, 12, 18],
            "product table",
        )


def test_criterion_2_coplanar_lines_goldens():
    with criterion(2, "coplanar-lines goldens", budget=1.0) as failures:
        arr = fixture_arrangement("three-coplanar-lines")
        hs = hilbert_series_J(dimension_function(arr))
        axes_hs = hilbert_series_J(
            dimension_function(fixture_arrangement("three-coordinate-axes"))
        )
        check(
            failures,
            hs == axes_hs,
            "product-ideal series must equal the coordinate-axes series",
        )
        table = hilbert_table(arr, 5)
        check(
            failures,
            [r.dim_I for r in table] == [0, 1, 3, 7, 12, 18],
            "intersection table",
        )


def test_criterion_3_plane_triples_goldens():
    with criterion(3, "plane-triple goldens in Q^4", budget=5.0) as failures:
        axis = fixture_arrangement("three-axis-planes")
        axis_I = [r.dim_I for r in hilbert_table(axis, 6)]
        expected_axis = [
            int(c) for c in expand_rational(QPoly.of(0, 0, 3, -2), 4, 6)
        ]
        check(failures, axis_I == expected_axis, f"axis-plane table {axis_I}")

        pencil = fixture_arrangement("three-pencil-planes")
        df = dimension_function(pencil)
        pencil_rows = hilbert_table(pencil, 6)
        pencil_I = [r.dim_I for r in pencil_rows]
        expected_pencil = [
            int(c) for c in expand_rational(QPoly.of(0, 1, 0, 1, -1), 4, 6)
        ]
        check(failures, pencil_I == expected_pencil, f"pencil table {pencil_I}")
        check(failures, not is_transversal(df), "pencil must be non-transversal")
        hs = hilbert_series_J(df)
        check(
            failures,
            hs.numerator == QPoly.of(0, 0, 0, 7, -9, 3) and hs.n == 4,
            f"pencil product series {hs}",
        )
        fitted = fit_numerator(pencil_I, 4)
        check(
            failures,
            not is_series_difference_polynomial((fitted, 4), hs),
            "intersection vs product series difference must not be polynomial",
        )


def test_criterion_4_series_matches_oracle(suite):
    with criterion(
        4, "product series vs oracle on 50 random arrangements", budget=120.0
    ) as failures:
        instances = suite.instances()
        check(failures, len(instances) == SUITE_SIZE, "suite size")
        for inst in instances:
            d_max = min(6, inst.m + 3)
            coeffs = inst.hs.table(d_max)
            dim_j = [r.dim_J for r in suite.table(inst)]
            for d in range(inst.m):
                check(
                    failures,
                    coeffs[d] == 0,
                    f"#{inst.idx}: coefficient below degree m at d={d}",
                )
            for d in range(d_max + 1):
                check(
                    failures,
                    coeffs[d] == dim_j[d],
                    f"#{inst.idx}: series {coeffs[d]} != oracle {dim_j[d]} at d={d}",
                )


def test_criterion_5_transversal_identities(suite):
    with criterion(5, "transversal closed-form identities") as failures:
        count = 0
        for inst in suite.instances():
            if not inst.transversal:
                continue
            count += 1
            codims = inst.df.singleton_codims
            f = transversal_series(codims, inst.n)
            check(
                failures,
                is_series_difference_polynomial(inst.hs, f),
                f"#{inst.idx}: H(J) - f must be a polynomial",
            )
            rows = suite.deep_table(inst)
            dim_i = [r.dim_I for r in rows]
            dim_j = [r.dim_J for r in rows]
            fitted_i = fit_numerator(dim_i, inst.n)
            check(
                failures,
                is_series_difference_polynomial((fitted_i, inst.n), f),
                f"#{inst.idx}: H(I) - f must be a polynomial",
            )
            for d in range(inst.m, 7):
                value = transversal_hilbert_function(codims, inst.n, d)
                check(
                    failures,
                    dim_i[d] == value and dim_j[d] == value,
                    f"#{inst.idx}: binomial sum mismatch at d={d}",
                )
            # (1-t)^n must divide the difference, with a quotient of degree < m
            difference = fitted_i - inst.hs.numerator
            if difference:
                check(
                    failures,
                    not poly_mod_one_minus_t_pow(difference, inst.n)
                    and difference.degree - inst.n < inst.m,
                    f"#{inst.idx}: h_I and h_J must agree for every d >= m",
                )
        check(failures, count > 0, "the suite must contain transversal instances")


def test_criterion_6_polynomial_stabilization(suite):
    with criterion(6, "Hilbert polynomial matches series from degree m") as failures:
        for inst in suite.instances():
            hp = hilbert_polynomial_from_numerator(inst.hs.numerator, inst.n)
            coeffs = inst.hs.coefficients(inst.m + 5)
            for d in range(inst.m, inst.m + 6):
                check(
                    failures,
                    hp(d) == coeffs[d],
                    f"#{inst.idx}: polynomial {hp(d)} != series {coeffs[d]} at d={d}",
                )


def test_criterion_7_recovery_round_trip():
    with criterion(
        7, "codimension recovery round trip on 50 random vectors", budget=30.0
    ) as failures:
        rng = random.Random(7007)
        for case in range(50):
            n = rng.randint(2, 6)
            m = rng.randint(1, 5)
            codims = sorted(rng.randint(1, n - 1) for _ in range(m))
            values = [
                transversal_hilbert_function(codims, n, d)
                for d in range(m, m + n)
            ]
            result = recover_codimensions(values, m, n)
            check(
                failures,
                list(result.codims) == codims,
                f"case {case}: {result.codims} != {codims} (n={n}, m={m})",
            )


def test_criterion_8_point_pipeline():
    with criterion(8, "end-to-end recovery from sampled points", budget=10.0) as failures:
        cloud = sample_points(fixture_arrangement("three-coordinate-axes"), 10, seed=88)
        check(failures, cloud.exact, "sampled cloud must be exact")
        values = [estimate_hilbert_value(cloud, d) for d in (3, 4, 5)]
        check(failures, values == [7, 12, 18], f"estimated values {values}")
        result = end_to_end_recover(cloud, m=3)
        check(failures, result.dims == (1, 1, 1), f"recovered dims {result.dims}")


def test_criterion_9_betti_structure(suite):
    with criterion(9, "numerator alternation and Betti degree bounds") as failures:
        for inst in suite.instances():
            p = inst.hs.p
            check(
                failures,
                p.degree <= inst.n - 1,
                f"#{inst.idx}: deg p = {p.degree} exceeds n-1",
            )
            try:
                betti = betti_numbers(inst.hs)
            except ValueError as exc:
                check(failures, False, f"#{inst.idx}: alternation: {exc}")
                continue
            dim_j = [r.dim_J for r in suite.table(inst)]
            check(
                failures,
                betti.betti[0] == dim_j[inst.m],
                f"#{inst.idx}: beta_0 {betti.betti[0]} != dim J_m {dim_j[inst.m]}",
            )
