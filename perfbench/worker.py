"""Workload process: runs benchmark items through ``cli.main`` in one process.

    python3 perfbench/worker.py ITEMS.json OUT.json SECONDS TRACE

Runs whole passes over the item list while the next pass is expected to end
within SECONDS (always at least one pass), then runs items from the start of
the list until SECONDS are spent; that last pass may be partial.  Untraced
passes cycle through the instances of each item: pass k runs instance k mod
the instance count, and an item shorter than SHORT_ITEM_S runs its next
instances too.  Between items of the untraced passes it times a fresh
interpreter importing the package about every SETUP_EVERY_S seconds, and a
fixed reference block about every REFERENCE_EVERY_S seconds, so both kinds of
sample are spread over the same stretch of machine time as the items.  With
TRACE = 1 it alternates an untraced pass and a traced pass, both running the
first instance of every item once, installing the tracer for the traced one,
so the trace overhead is measured on the same inputs.  Writes, per pass, the
start, times and outputs of each item's runs and the reference samples with
the clock reading after each; every distinct output (exit code, stdout,
stderr) once; the set-up samples; the peak resident memory and, when traced,
the spans and layer summary to OUT.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

SETUP_EVERY_S = 2.0
MIN_SETUP_SAMPLES = 9
SETUP_ARGV = [sys.executable, "-c", "import subspace_hilbert, subspace_hilbert.cli"]

# When cycling, an item runs its next instances too while its runs in the
# pass add up to less than this, up to one run of each instance, so all but
# the heaviest items average over every instance in each pass.
SHORT_ITEM_S = 1.0

REFERENCE_EVERY_S = 0.5
# The reference block: a fixed loop of interpreted integer arithmetic, code
# of the benchmark's own, so a change to the package cannot change its time.
# Its time tracks the speed the shared machine gives this process; of the
# blocks tried (Fraction elimination, big-int row reduction, Fraction
# monomial rows) it followed the workloads' own slowdowns most closely.
REFERENCE_LOOP = 250_000


def run_item(main, argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # an item that raises counts as failed
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def setup_sample() -> float:
    """Wall time of a fresh interpreter until the package is imported."""
    start = time.perf_counter()
    proc = subprocess.run(SETUP_ARGV, capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit("cannot import subspace_hilbert: "
                         + proc.stderr.decode(errors="replace").strip()[-300:])
    return elapsed


def reference_sample() -> float:
    """Wall time of the fixed reference block."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


class Runner:
    """Runs passes and keeps one copy of each distinct item output.

    With ``cycle`` pass k starts every item at instance k and repeats short
    items; without it every pass runs the first instance of each item once.
    """

    def __init__(self, cli, items: list[dict], cycle: bool):
        self.cli, self.items, self.cycle = cli, items, cycle
        self.passes_run = 0
        self.outputs: list = []
        self._index: dict = {}
        self.setup: list[float] = []
        self._last_setup = self._last_reference = float("-inf")

    def output_index(self, code: int, out: str, err: str) -> int:
        key = (code, out, err)
        if key not in self._index:
            self._index[key] = len(self.outputs)
            self.outputs.append(key)
        return self._index[key]

    def maybe_sample_setup(self) -> float:
        if time.perf_counter() - self._last_setup < SETUP_EVERY_S:
            return 0.0
        sample = setup_sample()
        self.setup.append(sample)
        self._last_setup = time.perf_counter()
        return sample

    def maybe_sample_reference(self) -> float:
        if time.perf_counter() - self._last_reference < REFERENCE_EVERY_S:
            return 0.0
        sample = reference_sample()
        self._last_reference = time.perf_counter()
        return sample

    def run_instances(self, item: dict, instance: int) -> tuple[list[float], list[int]]:
        """Runs one instance of the item, or, when cycling, further instances
        while the runs of a short item add up to less than SHORT_ITEM_S."""
        argvs = item["argvs"]
        times, outputs = [], []
        while True:
            elapsed, code, out, err = run_item(self.cli.main, argvs[instance % len(argvs)])
            times.append(elapsed)
            outputs.append(self.output_index(code, out, err))
            instance += 1
            if not self.cycle or len(times) == len(argvs) or sum(times) >= SHORT_ITEM_S:
                return times, outputs

    def run_passes(self, budget: float, tracer=None) -> list[dict]:
        """Whole passes while the next is expected to fit in the budget, then
        items from the start of the list until the budget is spent."""
        passes = []
        began = time.perf_counter()
        last = False
        while True:
            instance = self.passes_run if self.cycle else 0
            record = {"times": [], "outputs": [], "starts": [], "reference": []}
            self.passes_run += 1
            start = time.perf_counter()
            sampling = 0.0
            for item in self.items:
                if last and time.perf_counter() - began > budget:
                    break
                if tracer is not None:
                    tracer.item, tracer.kind = item["id"], item["kind"]
                else:
                    reference = self.maybe_sample_reference()
                    if reference:
                        record["reference"].append([time.perf_counter(), reference])
                    sampling += self.maybe_sample_setup() + reference
                record["starts"].append(time.perf_counter())
                times, outputs = self.run_instances(item, instance)
                record["times"].append(times)
                record["outputs"].append(outputs)
            record["wall"] = time.perf_counter() - start - sampling
            if record["times"]:
                passes.append(record)
            if last:
                return passes
            last = time.perf_counter() - began + record["wall"] > budget


def main() -> int:
    items_path, out_path, seconds, trace = sys.argv[1:5]
    items = json.loads(Path(items_path).read_text(encoding="utf-8"))
    budget = float(seconds)
    from subspace_hilbert import cli

    runner = Runner(cli, items, cycle=trace != "1")
    result: dict = {}
    if trace != "1":
        result["passes"] = runner.run_passes(budget)
    else:
        import layers

        tracer = layers.Tracer()
        result["passes"], result["traced_passes"] = [], []
        began = time.perf_counter()
        while True:
            # alternate, so both sides see the same drift in machine speed
            result["passes"] += runner.run_passes(0)
            layers.install(tracer)
            result["traced_passes"] += runner.run_passes(0, tracer)
            tracer.uninstall()
            pair = result["passes"][-1]["wall"] + result["traced_passes"][-1]["wall"]
            if time.perf_counter() - began + pair > budget:
                break
        result["layers"] = layers.summarize(tracer.spans, tracer.counts)
        result["spans"] = tracer.spans
    while len(runner.setup) < MIN_SETUP_SAMPLES:
        runner.setup.append(setup_sample())
    result["outputs"] = runner.outputs
    result["setup"] = runner.setup
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
