"""Per-degree cost of the oracle table: hilbert_table times and fallbacks.

Two parts, both on seeded arrangements, so two source trees can be measured
on the same inputs.  An arrangement is either ``random_arrangement`` or
``arrangement_kinds.pencil``: subspaces of the given dimensions through one
common line.

- **Per degree.**  For ``INSTANCES`` random arrangements in Q^5 for each
  m = 2, 3, 4 (dimensions drawn from 0..4) and one pencil per m
  (``PENCILS``), and every d <= 8: the time of ``hilbert_table(arr, d)``,
  best of ``--repeat`` runs; for each degree how dim I_d closed ("standard
  rows", where the rows of the restriction blocks off a chain's leading
  monomials are independent mod p, by ``standard_columns_independent`` on
  their transpose; "bracket", where the blocks were ranked whole and the
  rank mod the first prime was their row or column count, so
  ``certified_pivots`` returned there, or where L_J met U_I; or "exact",
  where ``certified_pivots`` lifted past its first prime) and how dim J_d
  closed: "bracket" (L_J met dim I_d), "degree" (below m, where J_d = 0 <
  dim I_d), "standard rows" (from m on, where the rows off J's leading
  monomials of the blocks beside the jets are independent mod p) or
  "exact" (``dim_product_ideal``);
  whether the GF(p) product span of degree d >= 1 ("J step") took an
  ``echelon_mod_p`` elimination ("eliminate", every degree d <= m and a
  rebuild above m) or was carried by its leading monomials alone
  ("count"); and the sha256 of the table to d = 8.  These come from one
  extra, untimed call with those functions wrapped here (``closing``): the
  oracle's own ``echelon_mod_p`` calls are its J steps, since the closing
  tests and certificates eliminate inside ``linalg``.
- **Near the monomial cap.**  Five larger cases (Q^6 dims [1,1,1] to d = 9,
  Q^7 [2,3] to d = 7, Q^4 [1,1,2,1] to d = 16, Q^5 [1,2] to d = 10, and the
  Q^5 pencil [3,1,2,3] to d = 10), each run ``--repeat`` times in a fresh
  interpreter: the best ``hilbert_table`` time, the largest peak RSS and
  the sha256 of the table, next to the peak RSS of a fresh interpreter that
  only builds the arrangement.  Peak RSS is ``VmHWM`` of /proc/self/status
  where it exists: on Linux ``ru_maxrss`` of a child carries the peak of
  the process that spawned it across exec, so it would read at least this
  script's own peak.

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
from subspace_hilbert import linalg, oracle
from subspace_hilbert.arrangement import random_arrangement
from subspace_hilbert.ratpoly import binom

from arrangement_kinds import pencil

N = 5
D_MAX = 8
MS = (2, 3, 4)
INSTANCES = 4
PENCILS = ((3, 2), (2, 3, 1), (3, 1, 2, 3))
SEED = 20261018
# (n, dims, d, kind)
NEAR_CAP = (
    (6, (1, 1, 1), 9, "random"),
    (7, (2, 3), 7, "random"),
    (4, (1, 1, 2, 1), 16, "random"),
    (5, (1, 2), 10, "random"),
    (5, (3, 1, 2, 3), 10, "pencil"),
)
DEFAULT_OUT = Path(__file__).with_name("BENCH_oracle.json")
BUILDERS = {"random": random_arrangement, "pencil": pencil}

# One near-cap case in a fresh interpreter: argv is n, dims, d, seed, kind
# and this script's directory (for ``BUILDERS``); d = -1 builds the
# arrangement only.  Prints seconds, peak RSS in KiB and the table's
# [dim_I, dim_J] pairs.
CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[6])
from oracle_scaling import BUILDERS
from subspace_hilbert.oracle import hilbert_table
n, dims, d, seed = int(sys.argv[1]), json.loads(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
arr = BUILDERS[sys.argv[5]](n, dims, seed)
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
    """Per degree d <= D_MAX, how I and J closed (see the module docstring),
    and "count" or "eliminate" for the J step ("none" at d = 0); and the
    table's sha256."""
    n, m = arr.ambient_dim, arr.num_subspaces
    dims = [s.dim for s in arr.subspaces]
    s = dims.index(max(dims))
    k = dims[s]
    # the closing tests see the rows of positive w-degree as columns, w the
    # coordinates off the largest subspace V_s, and a J step the monomials
    # of its degree
    degree_of_rows = {
        binom(d + n - 1, n - 1) - binom(d + k - 1, k - 1): d for d in range(D_MAX + 1)
    }
    degree_of_columns = {binom(d + n - 1, n - 1): d for d in range(D_MAX + 1)}
    # the width of the restriction blocks of the V_i other than V_s
    block_width = [
        sum(binom(d + c - 1, c - 1) for i, c in enumerate(dims) if i != s)
        for d in range(D_MAX + 1)
    ]
    called = {key: set() for key in ("I", "J", "rows")}
    eliminated = set()
    lifts = [0]

    def product_spy(fn):
        def wrapper(a, S, d):
            called["J"].add(d)
            return fn(a, S, d)

        return wrapper

    def pivots_spy(fn):
        # certified_pivots(transpose of the blocks), its columns the h rows:
        # exact where it lifts past its first prime
        def wrapper(matrix):
            before = lifts[0]
            result = fn(matrix)
            if lifts[0] > before:
                called["I"].add(degree_of_rows[matrix.shape[1]])
            return result

        return wrapper

    def columns_spy(fn):
        # standard_columns_independent(transpose, heads, p), its columns the
        # h rows: independent rows of the blocks alone close I; of the
        # blocks beside the jets, J
        def wrapper(matrix, *rest):
            independent = fn(matrix, *rest)
            d = degree_of_rows[matrix.shape[1]]
            if independent and len(matrix) == block_width[d]:
                called["rows"].add(d)
            return independent

        return wrapper

    def elimination_spy(fn):
        def wrapper(matrix, p):
            eliminated.add(degree_of_columns[matrix.shape[1]])
            return fn(matrix, p)

        return wrapper

    def lifts_spy(fn):
        def wrapper(*args):
            lifts[0] += 1
            return fn(*args)

        return wrapper

    # the J tests are the oracle's own calls, the I tests kernel_leads' calls
    spies = [
        (linalg, "certified_pivots", pivots_spy),
        (linalg, "standard_columns_independent", columns_spy),
        (linalg, "_lifts", lifts_spy),
        (oracle, "dim_product_ideal", product_spy),
        (oracle, "standard_columns_independent", columns_spy),
        (oracle, "echelon_mod_p", elimination_spy),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in spies]
    for module, name, spy in spies:
        setattr(module, name, spy(getattr(module, name)))
    try:
        table = oracle.hilbert_table(arr, D_MAX)
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
    I = [
        "exact" if d in called["I"]
        else "standard rows" if d in called["rows"]
        else "bracket"
        for d in range(D_MAX + 1)
    ]
    J = [
        "exact" if d in called["J"]
        else "bracket" if table[d].dim_J == table[d].dim_I
        else "degree" if d < m
        else "standard rows"
        for d in range(D_MAX + 1)
    ]
    steps = ["none"] + [
        "eliminate" if d in eliminated else "count" for d in range(1, D_MAX + 1)
    ]
    return I, J, steps, digest([[r.dim_I, r.dim_J] for r in table])


def per_degree(repeat: int) -> dict:
    rng = random.Random(SEED)
    shapes = []
    for m in MS:
        for k in range(INSTANCES):
            dims = [rng.randint(0, N - 1) for _ in range(m)]
            shapes.append((f"m={m} #{k}", "random", dims, rng.randrange(1 << 30)))
    for dims in PENCILS:
        shapes.append((f"m={len(dims)} pencil", "pencil", list(dims), SEED))
    cases = {}
    for name, kind, dims, seed in shapes:
        arr = BUILDERS[kind](N, dims, seed)
        I, J, steps, table_sha256 = closing(arr)
        cases[name] = {
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
        print(name, json.dumps(cases[name]), file=sys.stderr, flush=True)
    return cases


def fresh(n: int, dims, d: int, seed: int, kind: str) -> tuple[float, float, str]:
    env = dict(os.environ, PYTHONPATH=str(Path(subspace_hilbert.__file__).parents[1]))
    argv = [
        sys.executable, "-c", CHILD, str(n), json.dumps(list(dims)), str(d), str(seed),
        kind, str(Path(__file__).resolve().parent),
    ]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    seconds, rss_kb, pairs = json.loads(out)
    return seconds, rss_kb / 1024, digest(pairs)


def near_cap(repeat: int) -> dict:
    cases = {}
    for n, dims, d, kind in NEAR_CAP:
        name = f"n={n} dims={list(dims)} d={d}" + (f" {kind}" if kind != "random" else "")
        runs = [fresh(n, dims, d, SEED, kind) for _ in range(repeat)]
        digests = {h for _, _, h in runs}
        if len(digests) != 1:
            raise RuntimeError(f"{name}: tables differ between runs")
        cases[name] = {
            "monomials": binom(d + n - 1, n - 1),
            "hilbert_table_s": round(min(t for t, _, _ in runs), 4),
            "peak_rss_mb": round(max(r for _, r, _ in runs), 1),
            "arrangement_only_rss_mb": round(fresh(n, dims, -1, SEED, kind)[1], 1),
            "table_sha256": digests.pop(),
        }
        print(name, json.dumps(cases[name]), file=sys.stderr, flush=True)
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
