"""Command-line driver: analyze arrangement files, recover dimensions, selftest.

File formats (one JSON document per file; rationals as strings like "3/2" to
keep the arithmetic exact):

  arrangement:  {"n": 3, "name": "...", "subspaces": [[["1","0","0"]], ...]}
                where each subspace is a list of basis vectors and each vector
                is a list of n rational strings
  point cloud:  {"n": 3, "points": [["1","0","0"], ["0","2","1"], ...]}
                floating-point entries are accepted only under --tol

Exit codes: 0 success; 1 invalid data or inconsistent recovery input;
2 usage errors; 3 the brute-force oracle disagrees with a closed form
(never a data condition — it indicates a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .arrangement import (
    DEFAULT_SUBSET_CAP,
    Arrangement,
    dimension_function,
    is_transversal,
)
from .fixtures import fixture_arrangement, fixture_names
from .gpca import (
    EMPTY_CLOUD,
    InconsistentDataError,
    PointCloud,
    RecoveryResult,
    estimate_hilbert_values,
    recover_codimensions,
)
from .hilbert import (
    betti_numbers,
    hilbert_series_J,
    is_series_difference_polynomial,
    transversal_hilbert_function,
    transversal_series,
)
from .linalg import SubspaceBasis
from .monomials import DEFAULT_MONOMIAL_CAP
from .oracle import hilbert_table
from .ratpoly import QPoly, expand_rational, fit_numerator

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 3

# Top degree of ``analyze --max-degree``, with or without --oracle.  The
# report lists one Hilbert-function value per degree m..D.  At D = 10000 that
# listing adds about 0.03 s and 0.2 MB for three lines in Q^3, and 0.1-0.2 s
# and 0.4 MB for 16 hyperplanes in Q^12; at D = 100000 it adds 0.25 s and
# 1.1-1.9 MB and 1.2 s and 4.5-4.9 MB.  The oracle's monomial cap bounds D
# further wherever n >= 2; in Q^1 every degree has one monomial, so there
# this limit alone keeps a table finite.
MAX_DEGREE = 10_000


class DataError(Exception):
    """Invalid input data: malformed files, bad values, cap violations."""


# ---------------------------------------------------------------------------
# file parsing

# ASCII digits: \d would take any Unicode digit, which int() reads too
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(value: Any, where: str) -> Fraction:
    """Parse an exact entry: a JSON integer or a string like "3" or "-3/2"."""
    if isinstance(value, bool):
        raise DataError(f"{where}: expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise DataError(
                f"{where}: {value!r} is not an integer or integer/positive-integer"
            )
        # the pattern leaves only decimal digits to int: cheaper than
        # Fraction parsing the string again
        num, sep, den = value.partition("/")
        try:
            if not sep:
                return Fraction(int(num))
            num, den = int(num), int(den)
        except ValueError as exc:
            raise DataError(f"{where}: {_too_many_digits()}") from exc
        if not den:
            raise DataError(f"{where}: zero denominator in {value!r}")
        return Fraction(num, den)
    raise DataError(
        f"{where}: expected a rational string, got {type(value).__name__}"
    )


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise DataError(f"{path}: nested too deeply to parse") from exc
    except ValueError as exc:
        # the one other failure of json.load: int() of a long integer literal
        raise DataError(f"{path}: {_too_many_digits()}") from exc


def _too_many_digits() -> str:
    return f"an integer with more than {sys.get_int_max_str_digits()} digits"


def _natural_field(doc: dict, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DataError(f"{key}: must be a positive integer")
    return value


def _parse_vector(value: Any, n: int, where: str) -> list[Fraction]:
    if not isinstance(value, list) or len(value) != n:
        raise DataError(f"{where}: expected a vector of {n} entries")
    return [parse_rational(x, f"{where}[{k}]") for k, x in enumerate(value)]


def parse_arrangement_document(doc: Any) -> tuple[Arrangement, str | None]:
    """Build an arrangement from a parsed JSON document.

    Errors name the offending field, e.g. ``subspaces[2][0][1]``.
    """
    if not isinstance(doc, dict):
        raise DataError("arrangement file must hold a JSON object")
    n = _natural_field(doc, "n")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise DataError("name: must be a string")
    raw = doc.get("subspaces")
    if not isinstance(raw, list) or not raw:
        raise DataError("subspaces: must be a non-empty list")
    subspaces = []
    for i, vectors_raw in enumerate(raw):
        where = f"subspaces[{i}]"
        if not isinstance(vectors_raw, list):
            raise DataError(f"{where}: must be a list of basis vectors")
        vectors = [
            _parse_vector(v, n, f"{where}[{j}]")
            for j, v in enumerate(vectors_raw)
        ]
        try:
            s = SubspaceBasis(n, vectors)
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
        if s.dim >= n:
            raise DataError(
                f"{where}: spans the whole ambient space; "
                "arrangement subspaces must be proper"
            )
        subspaces.append(s)
    try:
        return Arrangement(n, subspaces), name
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def parse_point_document(doc: Any, allow_float: bool) -> PointCloud:
    if not isinstance(doc, dict):
        raise DataError("point file must hold a JSON object")
    n = _natural_field(doc, "n")
    raw = doc.get("points")
    if not isinstance(raw, list):
        raise DataError("points: must be a list of vectors")
    points = []
    for i, vector in enumerate(raw):
        where = f"points[{i}]"
        if not isinstance(vector, list) or len(vector) != n:
            raise DataError(f"{where}: expected a vector of {n} entries")
        entries: list[Any] = []
        for k, x in enumerate(vector):
            if isinstance(x, float):
                if not math.isfinite(x):
                    raise DataError(f"{where}[{k}]: {x!r} is not a finite number")
                if not allow_float:
                    raise DataError(
                        f"{where}[{k}]: floating-point entries need --tol"
                    )
                entries.append(x)
            else:
                entries.append(parse_rational(x, f"{where}[{k}]"))
        points.append(entries)
    try:
        return PointCloud(n, points)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


# ---------------------------------------------------------------------------
# report documents

def render_json(doc: Any) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    Counts and coefficients that grow with the degree are emitted as strings
    so consumers never face 64-bit overflow; re-rendering a parsed report is
    byte-identical.
    """
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _subset_order(m: int) -> list[int]:
    return sorted(range(1, 1 << m), key=lambda mask: (mask.bit_count(), mask))


def _subset_indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _strings(values: Iterable, field: str) -> list[str]:
    """The report numbers as strings; one past the interpreter's digit limit
    is a DataError naming the report field."""
    try:
        return [str(v) for v in values]
    except ValueError as exc:
        raise DataError(f"{field}: {_too_many_digits()}") from exc


def _poly_from_strings(coeffs: Sequence[str]) -> QPoly:
    return QPoly(Fraction(c) for c in coeffs)


def analyze_document(
    arr: Arrangement, name: str | None, max_degree: int, with_oracle: bool
) -> dict:
    """The full analysis report for one arrangement as a JSON-ready dict."""
    df = dimension_function(arr)
    hs = hilbert_series_J(df)
    betti = betti_numbers(hs)
    hp = hs.hilbert_polynomial()
    transversal = is_transversal(df)
    # before the Hilbert-function values: a degree past the cap fails at once
    table = hilbert_table(arr, max_degree) if with_oracle else None
    m = arr.num_subspaces
    betti_strings = _strings(betti.betti, "betti")
    doc: dict[str, Any] = {
        "n": arr.ambient_dim,
        "m": m,
        "transversal": transversal,
        "dimension_function": [
            {
                "subset": _subset_indices(mask),
                "dim": df.dim_of(mask),
                "codim": df.codim_of(mask),
            }
            for mask in _subset_order(m)
        ],
        "series": {
            "numerator": _strings(hs.numerator.coeffs, "series"),
            "denominator_power": hs.n,
        },
        "betti": {
            "total": betti_strings,
            "graded": [
                {"homological": i, "internal": j, "count": betti_strings[i]}
                for i, j in sorted(betti.graded())
            ],
        },
        "hilbert_polynomial": {
            "coefficients": _strings(hp.coeffs.coeffs, "hilbert_polynomial"),
            "variable": "d",
        },
    }
    if name is not None:
        doc["name"] = name
    if transversal:
        codims = df.singleton_codims
        f_num, power = transversal_series(codims, arr.ambient_dim)
        doc["transversal_closed_form"] = {
            "numerator": _strings(f_num.coeffs, "transversal_closed_form"),
            "denominator_power": power,
        }
        doc["hilbert_function"] = {
            "start": m,
            "values": _strings(
                (
                    transversal_hilbert_function(codims, arr.ambient_dim, d)
                    for d in range(m, max_degree + 1)
                ),
                "hilbert_function",
            ),
        }
    if table is not None:
        dim_i = [r.dim_I for r in table]
        dim_j = [r.dim_J for r in table]
        agrees = list(hs.table(max_degree)) == dim_j
        if transversal:
            expected = [
                int(v) for v in doc["hilbert_function"]["values"]
            ]
            agrees = agrees and dim_i[m:] == expected
        doc["oracle"] = {
            "max_degree": max_degree,
            "dim_intersection": _strings(dim_i, "oracle"),
            "dim_product": _strings(dim_j, "oracle"),
            "agrees": agrees,
        }
    return doc


def recovery_document(
    result: RecoveryResult, m: int, values: Sequence[int], start: int
) -> dict:
    return {
        "n": result.ambient_dim,
        "m": m,
        "hilbert_values": {
            "start": start,
            "values": _strings(values, "hilbert_values"),
        },
        "multiplicities": list(result.multiplicities),
        "codimensions": list(result.codims),
        "dimensions": list(result.dims),
    }


# ---------------------------------------------------------------------------
# text rendering (same numeric content as the JSON documents)

def _rational_function_str(entry: dict) -> str:
    numerator = _poly_from_strings(entry["numerator"])
    return f"({numerator.to_str()})/(1 - t)^{entry['denominator_power']}"


def render_analysis_text(doc: dict) -> str:
    lines = []
    if "name" in doc:
        lines.append(f"arrangement: {doc['name']}")
    lines.append(f"ambient dimension: n = {doc['n']}")
    lines.append(f"subspaces: m = {doc['m']}")
    lines.append("dimension function:")
    for row in doc["dimension_function"]:
        subset = "{" + ",".join(map(str, row["subset"])) + "}"
        lines.append(f"  {subset}: dim {row['dim']}, codim {row['codim']}")
    lines.append(f"transversal: {'yes' if doc['transversal'] else 'no'}")
    lines.append(
        f"product-ideal series: H(J, t) = {_rational_function_str(doc['series'])}"
    )
    betti = doc["betti"]
    lines.append(
        "Betti numbers: "
        + ", ".join(f"beta_{i} = {b}" for i, b in enumerate(betti["total"]))
    )
    lines.append(
        "graded Betti numbers: "
        + ", ".join(
            f"beta_{{{g['homological']},{g['internal']}}} = {g['count']}"
            for g in betti["graded"]
        )
    )
    hp = doc["hilbert_polynomial"]
    lines.append(
        "Hilbert polynomial: h(d) = "
        + _poly_from_strings(hp["coefficients"]).to_str(hp["variable"])
    )
    if "transversal_closed_form" in doc:
        lines.append(
            "transversal closed form: f(t) = "
            + _rational_function_str(doc["transversal_closed_form"])
        )
    hf = doc.get("hilbert_function")
    if hf and hf["values"]:
        stop = hf["start"] + len(hf["values"]) - 1
        lines.append(
            f"Hilbert function (d = {hf['start']}..{stop}): "
            + ", ".join(hf["values"])
        )
    if "oracle" in doc:
        oracle = doc["oracle"]
        lines.append("oracle table:")
        rows = zip(oracle["dim_intersection"], oracle["dim_product"])
        for d, (di, dj) in enumerate(rows):
            lines.append(f"  d = {d}: dim I_d = {di}, dim J_d = {dj}")
        verdict = "yes" if oracle["agrees"] else "no"
        lines.append(f"oracle agrees with closed forms: {verdict}")
    return "\n".join(lines) + "\n"


def render_recovery_text(doc: dict) -> str:
    hv = doc["hilbert_values"]
    stop = hv["start"] + len(hv["values"]) - 1
    lines = [
        f"ambient dimension: n = {doc['n']}",
        f"subspaces: m = {doc['m']}",
        f"Hilbert values (d = {hv['start']}..{stop}): " + ", ".join(hv["values"]),
        "multiplicities: "
        + ", ".join(
            f"r_{c} = {r}"
            for c, r in enumerate(doc["multiplicities"], start=1)
        ),
        "codimensions: " + ", ".join(map(str, doc["codimensions"])),
        "dimensions: " + ", ".join(map(str, doc["dimensions"])),
    ]
    return "\n".join(lines) + "\n"


def _emit(doc: dict, as_json: bool, render_text: Callable[[dict], str]) -> None:
    sys.stdout.write(render_json(doc) if as_json else render_text(doc))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_analyze(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.max_degree is not None and args.max_degree < 0:
        parser.error("--max-degree must be nonnegative")
    if args.max_degree is not None and args.max_degree > MAX_DEGREE:
        parser.error(f"--max-degree must be at most {MAX_DEGREE}")
    arr, name = parse_arrangement_document(_load_json(args.file))
    max_degree = (
        arr.num_subspaces + 3 if args.max_degree is None else args.max_degree
    )
    doc = analyze_document(arr, name, max_degree, args.oracle)
    _emit(doc, args.json, render_analysis_text)
    if args.oracle and not doc["oracle"]["agrees"]:
        print(
            "error: the oracle disagrees with a closed form; this is a bug",
            file=sys.stderr,
        )
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _cmd_recover(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.m < 1:
        parser.error("--m must be at least 1")
    if (args.values is None) == (args.points is None):
        parser.error("provide exactly one of --values or --points")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        parser.error("--tol must be finite and positive")
    if args.values is not None:
        if args.n is None:
            parser.error("--values requires --n")
        if args.n < 1:
            parser.error("--n must be at least 1")
        if args.tol is not None:
            parser.error("--tol applies only to --points")
        values = list(args.values)
        n = args.n
        result = recover_codimensions(values, args.m, n)
    else:
        if args.n is not None:
            parser.error("--n is read from the point file")
        cloud = parse_point_document(
            _load_json(args.points), allow_float=args.tol is not None
        )
        if not cloud.points:
            raise DataError(EMPTY_CLOUD)
        n = cloud.ambient_dim
        values = estimate_hilbert_values(cloud, range(args.m, args.m + n), args.tol)
        result = recover_codimensions(values, args.m, n)
    doc = recovery_document(result, args.m, values, args.m)
    _emit(doc, args.json, render_recovery_text)
    return EXIT_OK


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(message)


def _selftest_axes() -> str:
    arr = fixture_arrangement("three-coordinate-axes")
    df = dimension_function(arr)
    hs = hilbert_series_J(df)
    _expect(is_transversal(df), "expected a transversal arrangement")
    _expect(
        hs.numerator == QPoly.of(0, 0, 0, 7, -9, 3) and hs.n == 3,
        f"unexpected series {hs}",
    )
    _expect(betti_numbers(hs).betti == (7, 9, 3), "unexpected Betti numbers")
    hp = hs.hilbert_polynomial()
    _expect(
        [hp(d) for d in (3, 4, 5)] == [7, 12, 18],
        "unexpected Hilbert polynomial values",
    )
    table = hilbert_table(arr, 5)
    _expect(
        [r.dim_I for r in table] == [0, 0, 3, 7, 12, 18],
        "unexpected intersection table",
    )
    _expect(
        [r.dim_J for r in table] == [0, 0, 0, 7, 12, 18],
        "unexpected product table",
    )
    _expect(
        recover_codimensions([7, 12, 18], 3, 3).dims == (1, 1, 1),
        "recovery must return three lines",
    )
    return "series, Betti numbers, polynomial, oracle tables, recovery"


def _selftest_coplanar() -> str:
    arr = fixture_arrangement("three-coplanar-lines")
    hs = hilbert_series_J(dimension_function(arr))
    axes = fixture_arrangement("three-coordinate-axes")
    _expect(
        hs == hilbert_series_J(dimension_function(axes)),
        "product-ideal series must match the coordinate axes",
    )
    table = hilbert_table(arr, 5)
    _expect(
        [r.dim_I for r in table] == [0, 1, 3, 7, 12, 18],
        "unexpected intersection table",
    )
    return "product-ideal series shared with the axes; intersection table"


def _selftest_axis_planes() -> str:
    arr = fixture_arrangement("three-axis-planes")
    hs = hilbert_series_J(dimension_function(arr))
    table = hilbert_table(arr, 6)
    expected = expand_rational(QPoly.of(0, 0, 3, -2), 4, 6)
    _expect(
        [r.dim_I for r in table] == list(expected),
        "intersection table must expand (3t^2 - 2t^3)/(1 - t)^4",
    )
    _expect(
        [r.dim_J for r in table] == list(hs.table(6)),
        "product table must match the series",
    )
    return "intersection series (3t^2 - 2t^3)/(1 - t)^4; product table agrees"


def _selftest_pencil_planes() -> str:
    arr = fixture_arrangement("three-pencil-planes")
    df = dimension_function(arr)
    hs = hilbert_series_J(df)
    _expect(not is_transversal(df), "expected a non-transversal arrangement")
    _expect(
        hs.numerator == QPoly.of(0, 0, 0, 7, -9, 3) and hs.n == 4,
        f"unexpected series {hs}",
    )
    table = hilbert_table(arr, 6)
    dim_i = [r.dim_I for r in table]
    expected = expand_rational(QPoly.of(0, 1, 0, 1, -1), 4, 6)
    _expect(
        dim_i == list(expected),
        "intersection table must expand (t + t^3 - t^4)/(1 - t)^4",
    )
    fitted = fit_numerator(dim_i, 4)
    _expect(
        not is_series_difference_polynomial((fitted, 4), hs),
        "intersection and product series must not differ by a polynomial",
    )
    return "non-transversal; intersection series differs from the product series"


_SELFTEST_CHECKS: dict[str, Callable[[], str]] = {
    "three-coordinate-axes": _selftest_axes,
    "three-coplanar-lines": _selftest_coplanar,
    "three-axis-planes": _selftest_axis_planes,
    "three-pencil-planes": _selftest_pencil_planes,
}


def _cmd_selftest(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    failures = 0
    for name in fixture_names():
        try:
            summary = _SELFTEST_CHECKS[name]()
        except Exception as exc:  # report every fixture, then fail at the end
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}: {summary}")
    print(f"selftest: {len(_SELFTEST_CHECKS) - failures} passed, {failures} failed")
    return EXIT_OK if failures == 0 else EXIT_DISAGREEMENT


# ---------------------------------------------------------------------------
# entry point

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-hilbert",
        description=(
            "Exact Hilbert series, Betti numbers, and dimension recovery "
            "for unions of linear subspaces."
        ),
        epilog=(
            "Environment: SUBSPACE_HILBERT_SUBSET_CAP bounds the number of "
            f"subspaces (default {DEFAULT_SUBSET_CAP}); "
            "SUBSPACE_HILBERT_MONOMIAL_CAP bounds the monomial-basis size of "
            f"the oracle and of point recovery (default {DEFAULT_MONOMIAL_CAP})."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "analyze", help="report the invariants of an arrangement file"
    )
    pa.add_argument("file", help="arrangement JSON file")
    pa.add_argument(
        "--max-degree",
        type=int,
        metavar="D",
        help=(
            f"top degree for tables (default: m + 3; at most {MAX_DEGREE}, "
            "and with --oracle within the monomial cap)"
        ),
    )
    pa.add_argument(
        "--oracle",
        action="store_true",
        help="append the brute-force table and an agreement verdict",
    )
    pa.add_argument(
        "--json", action="store_true", help="emit a canonical JSON report"
    )
    pa.set_defaults(handler=_cmd_analyze)

    pr = sub.add_parser(
        "recover",
        help="recover subspace codimensions from Hilbert values or points",
    )
    pr.add_argument(
        "--values",
        type=int,
        nargs="+",
        metavar="V",
        help="Hilbert-function values at degrees m..m+n-1",
    )
    pr.add_argument(
        "--m", type=int, required=True, metavar="M", help="number of subspaces"
    )
    pr.add_argument(
        "--n", type=int, metavar="N", help="ambient dimension (with --values)"
    )
    pr.add_argument("--points", metavar="FILE", help="point-cloud JSON file")
    pr.add_argument(
        "--tol",
        type=float,
        metavar="EPS",
        help="rank tolerance; enables floating-point points",
    )
    pr.add_argument(
        "--json", action="store_true", help="emit a canonical JSON report"
    )
    pr.set_defaults(handler=_cmd_recover)

    ps = sub.add_parser("selftest", help="run the shipped fixtures end to end")
    ps.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except InconsistentDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: check that --m matches the number of subspaces and that "
            "the arrangement is transversal; components of codimension n "
            "never contribute",
            file=sys.stderr,
        )
        return EXIT_DATA
    except (DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
