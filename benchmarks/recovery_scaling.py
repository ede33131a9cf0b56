"""Rank time of point recovery per degree: IntEchelon rows against certified_rank.

For every cloud of the ``recover-points`` benchmark shapes (the clouds
``perfbench/gen.py`` draws from one seed, three instances per shape) and
every degree d = m .. m+n-1 that ``recover --points`` evaluates, times two
exact ranks of the evaluation matrix, best of ``--repeat`` runs each:

- ``before_s``: one row per point (its primitive integer ray), fed to
  ``IntEchelon`` one at a time until it is full, as ``estimate_hilbert_value``
  did before ``certified_rank``;
- ``after_s``: ``certified_rank`` of the matrix at the cloud's distinct rays
  (``PointCloud.rays``), as ``estimate_hilbert_value`` does now.

The two ranks must agree.  Each matrix also records its shape (points,
distinct rays, monomials), the rank, how many primes ``certified_rank``
reduced it by (the first prime, then one per lifting step) and whether it
was certified or fell back to ``IntEchelon``.  These counts come from
wrapping ``linalg._rref_mod_p``, ``linalg._certify`` and
``linalg._echelon_rank`` around one extra, untimed call.

Usage, from the repository root::

    PYTHONPATH=src python3 benchmarks/recovery_scaling.py

writes ``benchmarks/BENCH_recovery.json``: per shape class and degree the
summed times, the certified and fallback counts and one line per matrix
(shape, rank, primes, outcome), and the totals.  Runs in this one
process, one rank at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's own seeded cloud generator)

from subspace_hilbert import linalg  # noqa: E402
from subspace_hilbert.cli import parse_point_document  # noqa: E402
from subspace_hilbert.gpca import _evaluation_matrix  # noqa: E402
from subspace_hilbert.linalg import (  # noqa: E402
    IntEchelon,
    certified_rank,
    primitive_int_vector,
)
from subspace_hilbert.oracle import monomial_basis  # noqa: E402

SEED = 1
DEFAULT_OUT = Path(__file__).with_name("BENCH_recovery.json")


def best_of(repeat: int, fn, *args):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
    return result, min(times)


def echelon_rank(matrix: np.ndarray) -> int:
    ech = IntEchelon(matrix.shape[1])
    for row in matrix:
        ech.add(row)
        if ech.full:
            break
    return ech.rank


@contextlib.contextmanager
def counting(counts: Counter):
    """Count primes, certificates and fallbacks of certified_rank calls."""
    originals = {
        name: getattr(linalg, name)
        for name in ("_rref_mod_p", "_certify", "_echelon_rank")
    }

    def rref_mod_p(*args):
        counts["primes"] += 1
        return originals["_rref_mod_p"](*args)

    def certify(*args):
        ok = originals["_certify"](*args)
        counts["certified"] += ok
        return ok

    def fallback(*args):
        counts["fallback"] += 1
        return originals["_echelon_rank"](*args)

    wrappers = {"_rref_mod_p": rref_mod_p, "_certify": certify, "_echelon_rank": fallback}
    for name, wrapper in wrappers.items():
        setattr(linalg, name, wrapper)
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(linalg, name, original)


def measure(cloud, m: int, repeat: int) -> list[dict]:
    n = cloud.ambient_dim
    point_rays = [primitive_int_vector(p) for p in cloud.points]
    out = []
    for d in range(m, m + n):
        basis = monomial_basis(n, d)
        rows = _evaluation_matrix(point_rays, basis)
        matrix = _evaluation_matrix(cloud.rays, basis)
        before, before_s = best_of(repeat, echelon_rank, rows)
        after, after_s = best_of(repeat, certified_rank, matrix)
        if before != after:
            raise AssertionError(f"ranks differ at d = {d}: {before} != {after}")
        counts: Counter = Counter()
        with counting(counts):
            certified_rank(matrix)
        out.append({
            "d": d,
            "points": rows.shape[0],
            "rays": matrix.shape[0],
            "monomials": matrix.shape[1],
            "rank": after,
            "primes": counts["primes"],
            "certified": bool(counts["certified"]),
            "fallback": bool(counts["fallback"]),
            "before_s": before_s,
            "after_s": after_s,
        })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rows: dict[str, dict] = {}
    totals = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        items = gen.generate("recover-points", args.seed, Path(tmp))
        for item in items:
            n, m, dims = item["truth"]["n"], item["truth"]["m"], item["truth"]["dims"]
            for argv_ in item["argvs"]:
                path = Path(argv_[argv_.index("--points") + 1])
                cloud = parse_point_document(json.loads(path.read_text()), allow_float=False)
                for entry in measure(cloud, m, args.repeat):
                    key = f"n={n} dims={dims} d={entry['d']}"
                    row = rows.setdefault(key, {
                        "matrices": [], "certified": 0, "fallback": 0,
                        "before_s": 0.0, "after_s": 0.0,
                    })
                    outcome = "fallback" if entry["fallback"] else (
                        "certified" if entry["certified"] else "full rank mod p")
                    row["matrices"].append(
                        f"{entry['points']} points, {entry['rays']} rays, "
                        f"{entry['monomials']} monomials: rank {entry['rank']}, "
                        f"{entry['primes']} primes, {outcome}"
                    )
                    for flag in ("certified", "fallback"):
                        row[flag] += entry[flag]
                        totals[flag] += entry[flag]
                    for label in ("before_s", "after_s"):
                        row[label] += entry[label]
                        totals[label] += entry[label]
                    totals["matrices"] += 1
                    totals[f"primes={entry['primes']}"] += 1
            print(f"{item['id']} n={n} dims={dims}", file=sys.stderr, flush=True)
    for row in rows.values():
        for label in ("before_s", "after_s"):
            row[label] = round(row[label], 4)
    doc = {
        "description": __doc__.splitlines()[0],
        "seed": args.seed,
        "repeat": args.repeat,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "totals": {
            key: round(value, 4) if isinstance(value, float) else value
            for key, value in sorted(totals.items())
        },
        "rows": rows,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps(doc["totals"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
