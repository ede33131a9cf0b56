"""Point recovery per degree: a certificate at every degree against the chain.

For every cloud of the ``recover-points`` benchmark shapes (the clouds
``perfbench/gen.py`` draws from one seed, three instances per shape) and
every degree d = m .. m+n-1 that ``recover --points`` evaluates, times two
ways to the vanishing dimension, median of ``--repeat`` runs each, both
from building the evaluation matrix at the cloud's distinct rays
(``PointCloud.rays``, by ``gpca._evaluations`` from degree 0) on:

- ``before_s``: ``certified_rank`` of every degree's matrix, as
  ``estimate_hilbert_value`` did for each degree before the chain;
- ``after_s``: one step of ``estimate_hilbert_values``' chain
  (``linalg.kernel_leads`` with the ``multiples`` of the previous degree's
  leading monomials as the chain left them).

The two values must agree.  Each degree also records its shape (points,
distinct rays, monomials), the value, and the route of the chain step:

- "leading monomials": closed by the previous degree's leading monomials
  and one rank mod a prime, with no ``certified_rank``;
- "certificate": a ``certified_rank`` whose check passed, with the number
  of primes it reduced the matrix by (the first prime, then one per
  lifting step);
- "full rank mod p": ``certified_rank``'s shortcut, full rank mod the
  first prime;
- "fallback": ``certified_rank`` fell back to ``IntEchelon``, which
  also gives the pivots that the chain carries on.

The routes come from wrapping ``linalg.certified_pivots`` and, inside it,
``linalg.echelon_mod_p`` (one call per prime), ``linalg._certify`` and
``linalg._echelon_pivots``, around one extra, untimed step; the chain's own
rank mod a prime eliminates outside ``certified_pivots``.

Usage, from the repository root::

    PYTHONPATH=src python3 benchmarks/recovery_scaling.py

writes ``benchmarks/BENCH_recovery.json``: per shape class and degree the
summed times, the route counts and one line per matrix (shape, value,
route), and the totals.  Runs in this one process, one step at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's own seeded cloud generator)

from subspace_hilbert import linalg  # noqa: E402
from subspace_hilbert.cli import parse_point_document  # noqa: E402
from subspace_hilbert.gpca import _evaluations  # noqa: E402
from subspace_hilbert.linalg import PRIME, certified_rank, kernel_leads  # noqa: E402
from subspace_hilbert.monomials import multiples  # noqa: E402

SEED = 1
DEFAULT_OUT = Path(__file__).with_name("BENCH_recovery.json")
ROUTES = ("leading monomials", "certificate", "full rank mod p", "fallback")


def median_of(repeat: int, fn, *args):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def evaluation_matrix(rays, n: int, d: int):
    return next(islice(_evaluations(rays, n), d, None))


def certified_value(rays, n: int, d: int) -> int:
    matrix = evaluation_matrix(rays, n, d)
    return matrix.shape[1] - certified_rank(matrix)


def chain_value(rays, n: int, d: int, leading):
    heads = None if leading is None else multiples(leading, n, d - 1)
    return kernel_leads(evaluation_matrix(rays, n, d), heads, PRIME)


@contextlib.contextmanager
def counting(counts: Counter):
    """Count primes, certificates and fallbacks of the chain's
    certified_pivots calls."""
    inside = [False]
    originals = {
        name: getattr(linalg, name)
        for name in ("certified_pivots", "echelon_mod_p", "_certify", "_echelon_pivots")
    }

    def certified_pivots(*args):
        inside[0] = True
        try:
            return originals["certified_pivots"](*args)
        finally:
            inside[0] = False

    def echelon_mod_p(*args):
        counts["primes"] += inside[0]
        return originals["echelon_mod_p"](*args)

    def certify(*args):
        ok = originals["_certify"](*args)
        counts["certified"] += ok
        return ok

    def fallback(*args):
        counts["fallback"] += 1
        return originals["_echelon_pivots"](*args)

    wrappers = {
        "certified_pivots": certified_pivots,
        "echelon_mod_p": echelon_mod_p,
        "_certify": certify,
        "_echelon_pivots": fallback,
    }
    for name, wrapper in wrappers.items():
        setattr(linalg, name, wrapper)
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(linalg, name, original)


def route(counts: Counter) -> str:
    if not counts["primes"]:
        return "leading monomials"
    if counts["fallback"]:
        return "fallback"
    return "certificate" if counts["certified"] else "full rank mod p"


def measure(cloud, m: int, repeat: int) -> list[dict]:
    n, rays = cloud.ambient_dim, cloud.rays
    leading = None
    out = []
    for d in range(m, m + n):
        before, before_s = median_of(repeat, certified_value, rays, n, d)
        (after, _), after_s = median_of(repeat, chain_value, rays, n, d, leading)
        if before != after:
            raise AssertionError(f"values differ at d = {d}: {before} != {after}")
        counts: Counter = Counter()
        with counting(counts):
            _, leading = chain_value(rays, n, d, leading)
        out.append({
            "d": d,
            "points": len(cloud),
            "rays": len(rays),
            "monomials": math.comb(d + n - 1, n - 1),
            "value": after,
            "primes": counts["primes"],
            "route": route(counts),
            "before_s": before_s,
            "after_s": after_s,
        })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--repeat", type=int, default=5)
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
                        "matrices": [], **dict.fromkeys(ROUTES, 0),
                        "before_s": 0.0, "after_s": 0.0,
                    })
                    primes = f", {entry['primes']} primes" if entry["primes"] else ""
                    row["matrices"].append(
                        f"{entry['points']} points, {entry['rays']} rays, "
                        f"{entry['monomials']} monomials: value {entry['value']}, "
                        f"{entry['route']}{primes}"
                    )
                    row[entry["route"]] += 1
                    totals[entry["route"]] += 1
                    for label in ("before_s", "after_s"):
                        row[label] += entry[label]
                        totals[label] += entry[label]
                    totals["matrices"] += 1
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
