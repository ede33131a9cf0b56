"""Per-degree cost of the oracle table: hilbert_table times and fallbacks.

Two parts, both on seeded arrangements (``random_arrangement``), so two
source trees can be measured on the same inputs:

- **Per degree.**  For ``INSTANCES`` arrangements in Q^5 for each m = 2, 3,
  4 (dimensions drawn from 0..4), and every d <= 8: the time of
  ``hilbert_table(arr, d)``, best of ``--repeat`` runs; for each degree
  whether dim I_d and dim J_d closed by the GF(p) bracket or fell back to
  the exact ``dim_intersection_ideal`` / ``dim_product_ideal``, and whether
  the GF(p) product span of degree d >= 1 ("J step") was closed by counting
  leading terms or took an ``echelon_mod_p`` elimination; and the sha256 of
  the table to d = 8.  These come from one extra, untimed call with those
  three functions wrapped here; an ``echelon_mod_p`` call made inside
  ``_rank_mod_p`` is the I rank and is not a J step.
- **Near the monomial cap.**  Four larger cases (Q^6 dims [1,1,1] to d = 9,
  Q^7 [2,3] to d = 7, Q^4 [1,1,2,1] to d = 16, Q^5 [1,2] to d = 10), each
  run ``--repeat`` times in a fresh interpreter: the best ``hilbert_table``
  time, the largest peak RSS and the sha256 of the table, next to the peak
  RSS of a fresh interpreter that only builds the arrangement.  Peak RSS is
  ``VmHWM`` of /proc/self/status where it exists: on Linux ``ru_maxrss``
  of a child carries the peak of the process that spawned it across exec,
  so it would read at least this script's own peak.

A table's sha256 is taken over the JSON text of its [dim_I, dim_J] pairs,
so equal digests on two trees mean equal tables.

Usage, from the repository root::

    PYTHONPATH=src python3 benchmarks/oracle_scaling.py --label after

Results are merged into ``benchmarks/BENCH_oracle.json`` under the label,
replacing an earlier entry of the same name.  To measure another checkout,
point ``PYTHONPATH`` at its ``src`` (e.g. ``--label before``); the fresh
interpreters import the package from the same place.  Everything runs one
call at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import subspace_hilbert
from subspace_hilbert import oracle
from subspace_hilbert.arrangement import random_arrangement

N = 5
D_MAX = 8
MS = (2, 3, 4)
INSTANCES = 4
SEED = 20261018
NEAR_CAP = (
    (6, (1, 1, 1), 9),
    (7, (2, 3), 7),
    (4, (1, 1, 2, 1), 16),
    (5, (1, 2), 10),
)
DEFAULT_OUT = Path(__file__).with_name("BENCH_oracle.json")

# One near-cap case in a fresh interpreter: argv is n, dims, d, seed, and
# d = -1 builds the arrangement only.  Prints seconds, peak RSS in KiB and
# the table's [dim_I, dim_J] pairs.
CHILD = """
import json, resource, sys, time
from subspace_hilbert.arrangement import random_arrangement
from subspace_hilbert.oracle import hilbert_table
n, dims, d, seed = int(sys.argv[1]), json.loads(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
arr = random_arrangement(n, dims, seed)
start = time.perf_counter()
table = hilbert_table(arr, d) if d >= 0 else []
elapsed = time.perf_counter() - start
pairs = [[r.dim_I, r.dim_J] for r in table]
try:
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([elapsed, peak, pairs]))
"""


def digest(pairs) -> str:
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def best_of(repeat: int, fn, *args) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def closing(arr) -> tuple[list[str], list[str], list[str], str]:
    """Per degree, "bracket" or "exact" for I and for J, and "count" or
    "eliminate" for the J step ("none" at d = 0); and the table's sha256."""
    exact = {"I": set(), "J": set()}
    eliminated = set()
    in_rank = [False]
    degree_of = {len(oracle.monomial_basis(N, d)): d for d in range(D_MAX + 1)}

    def spy(key, fn):
        def wrapper(a, S, d):
            exact[key].add(d)
            return fn(a, S, d)

        return wrapper

    def rank_spy(blocks, p):
        in_rank[0] = True
        try:
            return saved[2](blocks, p)
        finally:
            in_rank[0] = False

    def elimination_spy(matrix, p):
        if not in_rank[0]:
            eliminated.add(degree_of[matrix.shape[1]])
        return saved[3](matrix, p)

    names = ("dim_intersection_ideal", "dim_product_ideal", "_rank_mod_p", "echelon_mod_p")
    saved = [getattr(oracle, name) for name in names]
    spies = (spy("I", saved[0]), spy("J", saved[1]), rank_spy, elimination_spy)
    for name, wrapper in zip(names, spies):
        setattr(oracle, name, wrapper)
    try:
        table = oracle.hilbert_table(arr, D_MAX)
    finally:
        for name, fn in zip(names, saved):
            setattr(oracle, name, fn)
    I, J = (
        ["exact" if d in exact[key] else "bracket" for d in range(D_MAX + 1)]
        for key in ("I", "J")
    )
    steps = ["none"] + [
        "eliminate" if d in eliminated else "count" for d in range(1, D_MAX + 1)
    ]
    return I, J, steps, digest([[r.dim_I, r.dim_J] for r in table])


def per_degree(repeat: int) -> dict:
    rng = random.Random(SEED)
    cases = {}
    for m in MS:
        for k in range(INSTANCES):
            dims = [rng.randint(0, N - 1) for _ in range(m)]
            seed = rng.randrange(1 << 30)
            arr = random_arrangement(N, dims, seed)
            I, J, steps, table_sha256 = closing(arr)
            cases[f"m={m} #{k}"] = {
                "dims": dims,
                "seed": seed,
                "hilbert_table_s": [
                    round(best_of(repeat, oracle.hilbert_table, arr, d), 5)
                    for d in range(D_MAX + 1)
                ],
                "I": I,
                "J": J,
                "J_step": steps,
                "table_sha256": table_sha256,
            }
            print(f"m={m} #{k}", json.dumps(cases[f"m={m} #{k}"]), file=sys.stderr, flush=True)
    return cases


def fresh(n: int, dims, d: int, seed: int) -> tuple[float, float, str]:
    env = dict(os.environ, PYTHONPATH=str(Path(subspace_hilbert.__file__).parents[1]))
    argv = [sys.executable, "-c", CHILD, str(n), json.dumps(list(dims)), str(d), str(seed)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    seconds, rss_kb, pairs = json.loads(out)
    return seconds, rss_kb / 1024, digest(pairs)


def near_cap(repeat: int) -> dict:
    cases = {}
    for n, dims, d in NEAR_CAP:
        runs = [fresh(n, dims, d, SEED) for _ in range(repeat)]
        digests = {h for _, _, h in runs}
        if len(digests) != 1:
            raise RuntimeError(f"n={n} dims={list(dims)} d={d}: tables differ between runs")
        cases[f"n={n} dims={list(dims)} d={d}"] = {
            "monomials": len(oracle.monomial_basis(n, d)),
            "hilbert_table_s": round(min(t for t, _, _ in runs), 4),
            "peak_rss_mb": round(max(r for _, r, _ in runs), 1),
            "arrangement_only_rss_mb": round(fresh(n, dims, -1, SEED)[1], 1),
            "table_sha256": digests.pop(),
        }
        print(n, dims, d, json.dumps(cases[f"n={n} dims={list(dims)} d={d}"]), file=sys.stderr, flush=True)
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    entry = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "per_degree": per_degree(args.repeat),
        "near_cap": near_cap(args.repeat),
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["description"] = __doc__.splitlines()[0]
    doc["n"], doc["d_max"], doc["seed"] = N, D_MAX, SEED
    doc[args.label] = entry
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
