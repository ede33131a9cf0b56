"""m-scaling of the closed forms at n = 12: per-layer wall times.

For m = 8, 10, 12, 14, 16 and three arrangement kinds, times four calls on
one seeded arrangement each:

- ``dimension_function(arr)``;
- ``compute_ps_family(df)`` on that dimension function;
- ``cli.analyze_document(arr, None, m + 3, False)`` (the ``analyze --json``
  report without the oracle, which recomputes both layers);
- ``cli.main(["analyze", "--json", FILE])`` end to end, with parsing and
  rendering, stdout captured.

Each time recorded is the median of REPEATS = 5 runs of the call, each on a
freshly built copy of the arrangement, built outside the timed region.  A
subspace computes its annihilator forms when it is built (0.1-0.5 ms each
at n = 12), so ``dimension_function`` times leave them out, while labels
recorded before forms moved to construction include them;
``cli_analyze_json_s`` parses the file and so includes them.  A single run
can swing several-fold on a shared machine; the median of five does not.

The kinds are those of ``arrangement_kinds`` (generic, degenerate,
hyperplanes), each arrangement seeded by m alone, so two source trees can be
measured on the same inputs.  Each rung also records ``saturated_frac``, the
share of nonempty masks with codim n, and ``ceiling_frac``, the share whose
codim equals the rank of all the forms (the most any mask can have).  The
walk of ``dimension_function`` does no work below a mask at that ceiling,
so ``ceiling_frac`` says how much of the walk the input lets it skip.

Usage, from the repository root::

    PYTHONPATH=src python3 benchmarks/closed_form_scaling.py --label after

Rungs are merged into ``benchmarks/BENCH_closed_form.json`` under the
label, replacing earlier rungs of the same name.  ``--kinds`` limits the run
to some kinds.  ``--max-m M`` records only the rungs with m <= M and writes
null for the others (for a slow tree, e.g. ``--label before --max-m 10``
with ``PYTHONPATH`` pointing at an older checkout's ``src``).  Each rung
runs in this one process, one call at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import arrangement_kinds
from subspace_hilbert import Arrangement, compute_ps_family, dimension_function
from subspace_hilbert.cli import analyze_document, main as cli_main

N = 12
RUNGS = (8, 10, 12, 14, 16)
SEED = 20261018
REPEATS = 5
DEFAULT_OUT = Path(__file__).with_name("BENCH_closed_form.json")


def timed(fn, make_args):
    """The last result of fn and the median wall time of REPEATS calls, each
    on arguments freshly built by make_args outside the timed region."""
    times = []
    for _ in range(REPEATS):
        args = make_args()
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
    return result, round(statistics.median(times), 4)


def run_cli(arr: Arrangement) -> None:
    doc = {
        "n": arr.ambient_dim,
        "subspaces": [[[str(x) for x in v] for v in s.vectors] for s in arr.subspaces],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arrangement.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(["analyze", "--json", str(path)]) != 0:
                raise RuntimeError("analyze failed")


def measure(kind: str, m: int) -> dict:
    def fresh():
        return arrangement_kinds.build(kind, N, m, SEED + m)

    df, t_df = timed(dimension_function, lambda: (fresh(),))
    _, t_ps = timed(compute_ps_family, lambda: (df,))
    _, t_an = timed(analyze_document, lambda: (fresh(), None, m + 3, False))
    _, t_cli = timed(run_cli, lambda: (fresh(),))
    dims = df.dims_by_mask[1:]
    return {
        "dims": [s.dim for s in fresh().subspaces],
        "saturated_frac": round(sum(1 for d in dims if d == 0) / len(dims), 4),
        "ceiling_frac": round(dims.count(min(dims)) / len(dims), 4),
        "dimension_function_s": t_df,
        "compute_ps_family_s": t_ps,
        "analyze_document_s": t_an,
        "cli_analyze_json_s": t_cli,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--max-m", type=int, default=max(RUNGS))
    parser.add_argument(
        "--kinds", nargs="+", choices=arrangement_kinds.KINDS, default=arrangement_kinds.KINDS
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    rungs = {}
    for kind in args.kinds:
        for m in RUNGS:
            key = f"{kind} m={m}"
            if m > args.max_m:
                rungs[key] = None
                continue
            rungs[key] = measure(kind, m)
            print(key, json.dumps(rungs[key]), file=sys.stderr, flush=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["description"] = __doc__.splitlines()[0]
    doc["n"], doc["seed"] = N, SEED
    entry = doc.setdefault(args.label, {"rungs": {}})
    entry["machine"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }
    entry["rungs"].update(rungs)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
