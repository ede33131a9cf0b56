"""Seeded end-to-end benchmark of the subspace-hilbert command line.

    python3 perfbench/run.py --workload oracle-crosscheck --seed 1 --seconds 60 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workloads and why each was chosen are listed in ``gen.WHY``.  Each run

1. writes the workload's input files from the seed (``gen.py``);
2. runs the items through ``cli.main`` in one worker process, single
   threaded, for about ``--seconds`` (``worker.py``); between items the
   worker times fresh interpreters up to ``import subspace_hilbert.cli``
   (``setup_s``, the median of these samples) and a fixed reference block,
   whose median time around each item scales the item's time;
3. checks every distinct output of each item outside the timed region;
4. prints one line per metric, then the result as one JSON object on the
   last line.  ``--trace 0`` reports the end-to-end metrics and ``--trace 1``
   the per-layer ones (``layers.py``); BENCHMARK.json names both sets.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from worker import SHORT_ITEM_S  # noqa: E402

WORKER_TIMEOUT_S = 150
# Reported times are scaled to a machine on which one reference block
# (worker.reference_sample) takes REFERENCE_NOMINAL_S, about its median on a
# shared 2-vCPU VM.  An item's scale is this over the median of the reference
# samples taken within SPEED_WINDOW_S of its runs, so a slow phase of the
# machine, which slows the block and the items alike, moves the reported
# times less.
REFERENCE_NOMINAL_S = 0.025
SPEED_WINDOW_S = 6.0
MIN_WINDOW_SAMPLES = 5
DEFAULT_SEED = 1
DIGESTS = HERE / "digests.json"

# one thread everywhere: the workloads are single-process and sequential
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing package, crashed worker)."""


def child_env(root: Path) -> dict:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("SUBSPACE_HILBERT_SUBSET_CAP", None)
    env.pop("SUBSPACE_HILBERT_MONOMIAL_CAP", None)
    return env


def run_worker(root: Path, env: dict, items_path: Path, seconds: int, trace: int) -> dict:
    out_path = items_path.with_name("result.json")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(items_path),
             str(out_path), str(seconds), str(trace)],
            cwd=root, env=env, capture_output=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise BenchError("worker failed: " + " | ".join(tail))
    return json.loads(out_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# correctness checks (exact, independent of the package)

def series_coeff(num: list[Fraction], n: int, d: int) -> Fraction:
    """Coefficient of t^d in num(t) / (1 - t)^n."""
    return sum(
        (a * comb(d - j + n - 1, n - 1) for j, a in enumerate(num) if j <= d),
        Fraction(0),
    )


def check_closed_form(doc: dict, truth: dict) -> list[str]:
    errors = []
    n, m = truth["n"], truth["m"]
    if (doc["n"], doc["m"]) != (n, m):
        return [f"n, m = {doc['n']}, {doc['m']}, expected {n}, {m}"]
    rows = doc["dimension_function"]
    singles = [r["dim"] for r in rows if len(r["subset"]) == 1]
    if singles != truth["dims"]:
        errors.append(f"singleton dims {singles}, expected {truth['dims']}")
    if truth["common_line"] and (doc["transversal"] or min(r["dim"] for r in rows) < 1):
        errors.append("subspaces through a common line must meet in a line")
    series = doc["series"]
    num = [Fraction(c) for c in series["numerator"]]
    if series["denominator_power"] != n:
        errors.append("series denominator power is not n")
    hp = [Fraction(c) for c in doc["hilbert_polynomial"]["coefficients"]]
    for d in range(m, len(num) + n):
        if sum(c * d**i for i, c in enumerate(hp)) != series_coeff(num, n, d):
            errors.append(f"Hilbert polynomial differs from the series at d = {d}")
            break
    betti = [int(b) for b in doc["betti"]["total"]]
    signed = [(-1) ** i * b for i, b in enumerate(betti)]
    if any(num[:m]) or num[m:] != signed or min(betti) < 0 or betti[-1] == 0:
        errors.append("Betti numbers do not alternate along the numerator")
    if doc["transversal"]:
        hf = doc["hilbert_function"]
        expected = [str(series_coeff(num, n, hf["start"] + k)) for k in range(len(hf["values"]))]
        if hf["start"] != m or hf["values"] != expected:
            errors.append("transversal Hilbert function differs from the series")
        fnum = [Fraction(c) for c in doc["transversal_closed_form"]["numerator"]]
        top = max(len(num), len(fnum))
        if any(series_coeff(num, n, d) != series_coeff(fnum, n, d) for d in range(top, top + n)):
            errors.append("H(J) - f is not a polynomial")
    return errors


def check_item(
    workload: str, item: dict, code: int, stdout: str, stderr: str, digest: str | None
) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    try:
        return check_report(workload, item["truth"], json.loads(stdout), stdout, digest)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def check_report(workload: str, truth: dict, doc: dict, stdout: str, digest: str | None) -> list[str]:
    if workload == "recover-points":
        if doc["dimensions"] != truth["dims"]:
            return [f"recovered {doc['dimensions']}, expected {truth['dims']}"]
        return []
    errors = []
    if digest is not None and hashlib.sha256(stdout.encode()).hexdigest() != digest:
        errors.append("canonical JSON bytes differ from the recorded digest")
    if workload == "oracle-crosscheck":
        if doc["oracle"]["agrees"] is not True:
            errors.append("oracle disagrees")
        return errors
    return errors + check_closed_form(doc, truth)


# ---------------------------------------------------------------------------
# metrics

def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A weighted mean of the order statistics: the i-th smallest of n weighs
    the mass of the Beta(p (n + 1), (1 - p) (n + 1)) density on
    ((i - 1) / n, i / n), integrated here by the midpoint rule.  Where the
    sorted item times have gaps (a few items of one shape next to a cheaper
    or dearer shape) it moves far less with the entries of single items than
    the one order statistic does.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) for x in xs
        ))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_rank(count: int) -> int:
    """Rank (1-based) of the highest percentile of ``count`` items with at
    least ten items beyond it."""
    return max(count - 10, 1)


def speed_at(reference: list[list[float]], start: float, end: float, run_median: float) -> float:
    """REFERENCE_NOMINAL_S over the median reference sample taken within
    SPEED_WINDOW_S of [start, end], or over the run's median when fewer than
    MIN_WINDOW_SAMPLES fall there."""
    clocks = [clock for clock, _ in reference]
    lo = bisect.bisect_left(clocks, start - SPEED_WINDOW_S)
    hi = bisect.bisect_right(clocks, end + SPEED_WINDOW_S)
    window = [sample for _, sample in reference[lo:hi]]
    median = statistics.median(window) if len(window) >= MIN_WINDOW_SAMPLES else run_median
    return REFERENCE_NOMINAL_S / median


def end_to_end(result: dict, items: list[dict]) -> tuple[dict, list[str]]:
    passes = result["passes"]
    reference = sorted(sample for p in passes for sample in p["reference"])
    run_median = statistics.median(sample for _, sample in reference)
    # samples[i]: item i's time in each pass that reached it, the mean of
    # its runs in that pass, scaled by the speed of the machine around them
    samples: list[list[float]] = [[] for _ in items]
    speeds = []
    for p in passes:
        for i, (start, runs) in enumerate(zip(p["starts"], p["times"])):
            speed = speed_at(reference, start, start + sum(runs), run_median)
            samples[i].append(statistics.fmean(runs) * speed)
            speeds.append(speed)
    times = [statistics.median(own) for own in samples]
    rank = tail_rank(len(items))
    values = {
        "setup_s": statistics.median(result["setup"]) * REFERENCE_NOMINAL_S / run_median,
        "wall_s": sum(times),
        "item_p50_s": harrell_davis(times, 0.5),
        "item_tail_s": harrell_davis(times, rank / len(items)),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    runs = sum(len(t) for p in passes for t in p["times"])
    whole = [p for p in passes if len(p["times"]) == len(items)]
    notes = [
        f"N = {len(items)} items, each with {len(items[0]['argvs'])} instances; "
        f"{len(whole)} whole passes and {len(passes) - len(whole)} partial made {runs} "
        f"item runs; items under {SHORT_ITEM_S} s ran further instances in the same pass",
        f"times are scaled to a reference block of {REFERENCE_NOMINAL_S} s by the "
        f"median of the reference samples ({len(reference)} in the run) within "
        f"{SPEED_WINDOW_S} s of each item: speeds {min(speeds):.3f} to {max(speeds):.3f}, median "
        f"{statistics.median(speeds):.3f}",
        "an item's time is the median of its pass times; item_p50_s and item_tail_s "
        f"are Harrell-Davis quantiles of the N item times, item_tail_s at "
        f"p{100 * rank // len(items)} (rank {rank} of N, the highest with 10 items beyond it)",
        "wall_s is the sum of the N item times; whole passes took "
        + ", ".join(f"{p['wall']:.3f}" for p in whole) + " s as measured, repeats included",
        f"setup_s is the median of {len(result['setup'])} fresh interpreters "
        f"importing the package, spread over the run: {statistics.median(result['setup']):.4f} s "
        "as measured",
        "shape classes (items, share of item time): " + class_shares(items, times),
    ]
    return values, notes


def class_shares(items: list[dict], times: list[float]) -> str:
    count: dict = {}
    busy: dict = {}
    for item, t in zip(items, times):
        count[item["class"]] = count.get(item["class"], 0) + 1
        busy[item["class"]] = busy.get(item["class"], 0.0) + t
    total = sum(times)
    return "; ".join(
        f"{name}: {count[name]}, {100 * busy[name] / total:.1f} %" for name in count
    )


def per_layer(result: dict, workload: str, items: list[dict]) -> tuple[dict, list[str]]:
    layers = result["layers"]
    traced = result["traced_passes"]
    scale = 1 / len(traced)
    calls, busy, own, counts = (
        layers["calls"], layers["busy"], layers["self"], layers["counts"],
    )

    def per_pass(table: dict, key: str) -> float:
        return table.get(key, 0) * scale

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {}
    for layer in (
        "cli.parse", "cli.render", "linalg.rref",
        "hilbert.betti_polynomial", "hilbert.transversal",
    ):
        values[f"{layer}.busy_s"] = per_pass(busy, layer)
    values["cli.parse.entries"] = per_pass(counts, "cli.parse.entries")
    values["cli.main.self_s"] = per_pass(own, "cli.main")
    values["linalg.rref.calls"] = per_pass(calls, "linalg.rref")

    df = "arrangement.dimension_function"
    values[f"{df}.calls"] = per_pass(calls, df)
    values[f"{df}.busy_s"] = per_pass(busy, df)
    values[f"{df}.self_s"] = per_pass(own, df)
    values[f"{df}.masks"] = per_pass(counts, f"{df}.masks")
    values[f"{df}.saturated_frac"] = share(
        counts.get(f"{df}.saturated", 0), counts.get(f"{df}.masks", 0))
    for kind in ("generic", "degenerate"):
        values[f"{df}.busy_s.{kind}"] = per_pass(busy, f"{df}.{kind}")
        values[f"{df}.saturated_frac.{kind}"] = share(
            counts.get(f"{df}.saturated.{kind}", 0), counts.get(f"{df}.masks.{kind}", 0))

    ps = "hilbert.compute_ps_family"
    values[f"{ps}.calls"] = per_pass(calls, ps)
    values[f"{ps}.busy_s"] = per_pass(busy, ps)
    values[f"{ps}.subset_pairs"] = per_pass(counts, f"{ps}.subset_pairs")
    values["hilbert.hilbert_series_J.self_s"] = per_pass(own, "hilbert.hilbert_series_J")

    for layer in ("oracle.dim_intersection_ideal", "oracle.dim_product_ideal"):
        values[f"{layer}.calls"] = per_pass(calls, layer)
        values[f"{layer}.busy_s"] = per_pass(busy, layer)
        values[f"{layer}.self_s"] = per_pass(own, layer)
        for d in range(gen.ORACLE_MAX_DEGREE + 1):
            values[f"{layer}.busy_s.d{d}"] = per_pass(busy, f"{layer}.d{d}")
    values["oracle.matrix_cells"] = per_pass(counts, "oracle.matrix_cells")

    add = "linalg.IntEchelon.add"
    add_calls = calls.get(add, 0)
    kept = counts.get(f"{add}.kept", 0)
    bigint = counts.get(f"{add}.bigint_rows", 0)
    values[f"{add}.calls"] = add_calls * scale
    values[f"{add}.kept"] = kept * scale
    values[f"{add}.kept_frac"] = share(kept, add_calls)
    values[f"{add}.busy_s"] = per_pass(busy, add)
    values[f"{add}.bigint_rows"] = bigint * scale
    values[f"{add}.bigint_frac"] = share(bigint, kept)

    for layer in ("gpca.estimate_hilbert_value", "gpca.recover_codimensions"):
        values[f"{layer}.calls"] = per_pass(calls, layer)
        values[f"{layer}.busy_s"] = per_pass(busy, layer)
    values["gpca.estimate_hilbert_value.self_s"] = per_pass(own, "gpca.estimate_hilbert_value")

    if workload == "recover-points":
        flags = [item["truth"]["transversal"] for item in items]
    else:
        first = [result["outputs"][runs[0]] for runs in traced[0]["outputs"]]
        flags = [json.loads(out)["transversal"] for code, out, _ in first if code == 0]
    values["items.transversal_frac"] = share(sum(flags), len(flags))

    untraced_wall = min(p["wall"] for p in result["passes"])
    traced_wall = min(p["wall"] for p in traced)
    item_total = sum(t for p in traced for runs in p["times"] for t in runs)
    self_total = sum(own.values())
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    values["trace.self_sum_gap_frac"] = (item_total - self_total) / item_total
    values["trace.unattributed_frac"] = share(own.get("cli.main", 0), item_total)
    notes = [
        f"per-layer values are per pass over {len(items)} items, "
        f"{len(traced)} traced passes alternating with {len(result['passes'])} untraced",
        f"traced wall {traced_wall:.4f} s, untraced wall {untraced_wall:.4f} s",
    ]
    return values, notes


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (root / "src" / "subspace_hilbert" / "__init__.py").is_file():
        raise BenchError("src/subspace_hilbert not found; run from the repository root")
    env = child_env(root)
    work = Path(".perfbench") / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        items = gen.generate(args.workload, args.seed, work / "inputs")
        items_path = work / "items.json"
        items_path.write_text(json.dumps(items), encoding="utf-8")
        result = run_worker(root, env, items_path, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    recorded = digests.get(args.workload, {})
    outputs = result["outputs"]
    checked: dict = {}
    attempted = failed = 0
    for record in result["passes"] + result.get("traced_passes", []):
        for item, indexes in zip(items, record["outputs"]):
            for index in indexes:
                key = (item["id"], index)
                if key not in checked:
                    code, out, err = outputs[index]
                    checked[key] = check_item(
                        args.workload, item, code, out, err, recorded.get(item["id"]))
                    for error in checked[key]:
                        print(f"FAIL {item['id']}: {error}", file=sys.stderr)
                attempted += 1
                failed += bool(checked[key])

    if args.trace:
        values, notes = per_layer(result, args.workload, items)
        names = spec["per_layer"]
        trace_dir = Path(".perfbench") / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "columns": ["name", "start", "end", "parent", "item", "tag"],
            "spans": result["spans"], "layers": values,
        }), encoding="utf-8")
        notes.append(f"spans written to {trace_path}")
    else:
        values, notes = end_to_end(result, items)
        names = spec["end_to_end"]

    print(f"workload {args.workload}, seed {args.seed}: {gen.WHY[args.workload]}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted:.4f} ratio")
    metrics = {}
    for metric in names:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']} = {value:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
