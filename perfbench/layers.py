"""In-memory spans around the package's public layer functions.

The tracer is installed from the benchmark's own files only: it replaces a
public function by a wrapper in every ``subspace_hilbert`` module that holds
a reference to it, so calls through module globals and through ``from ...
import`` names are both recorded.  Each span is (name, start, end, parent
span, item id, tag); counts are taken at the same boundaries from the
arguments and return values, never from package internals.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from math import comb
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.item: str | None = None
        self.kind: str | None = None
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name, fn, tag=None, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (
                    name, start, end, parent, self.item,
                    tag(args) if tag else None,
                )
            if count:
                count(self, args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, tag=None, count=None):
        """Wrap ``owner.attr`` and every package-module alias of it."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, tag, count)
        targets = [owner] + [
            mod for key, mod in sys.modules.items()
            if key.startswith("subspace_hilbert") and mod is not owner
        ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._restore.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# counters taken at layer boundaries

def _count_parse(tracer, args, result):
    doc = result[0] if isinstance(result, tuple) else result
    if hasattr(doc, "subspaces"):
        entries = sum(s.dim for s in doc.subspaces) * doc.ambient_dim
    else:
        entries = len(doc.points) * doc.ambient_dim
    tracer.counts["cli.parse.entries"] += entries


def _count_dimension_function(tracer, args, result):
    dims = result.dims_by_mask
    saturated = sum(1 for d in dims[1:] if d == 0)
    for suffix in ("", f".{tracer.kind}"):
        tracer.counts[f"arrangement.dimension_function.masks{suffix}"] += len(dims) - 1
        tracer.counts[f"arrangement.dimension_function.saturated{suffix}"] += saturated


def _count_ps_family(tracer, args, result):
    tracer.counts["hilbert.compute_ps_family.subset_pairs"] += 3 ** args[0].num_subspaces


def _monomials(n: int, d: int) -> int:
    return comb(d + n - 1, n - 1)


def _count_dim_intersection(tracer, args, result):
    a, _, d = args[:3]
    n = a.ambient_dim
    cols = sum(_monomials(s.dim, d) for s in a.subspaces if s.dim)
    tracer.counts["oracle.matrix_cells"] += _monomials(n, d) * cols


def _count_dim_product(tracer, args, result):
    # candidate rows of each factor step, bounded by the degree-e monomials
    a, _, d = args[:3]
    n, k = a.ambient_dim, a.num_subspaces
    if d < k:
        return
    for step, s in enumerate(a.subspaces):
        e = d - k + step
        tracer.counts["oracle.matrix_cells"] += (
            (n - s.dim) * _monomials(n, e) * _monomials(n, e + 1)
        )


def _count_echelon_add(tracer, args, result):
    if result:
        tracer.counts["linalg.IntEchelon.add.kept"] += 1
        if isinstance(args[0].rows[-1], list):
            tracer.counts["linalg.IntEchelon.add.bigint_rows"] += 1


def _degree_tag(args):
    return f"d{args[2]}"


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    from subspace_hilbert import arrangement, cli, gpca, hilbert, linalg, oracle

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "_load_json", "cli.parse")
    tracer.patch(cli, "parse_arrangement_document", "cli.parse", count=_count_parse)
    tracer.patch(cli, "parse_point_document", "cli.parse", count=_count_parse)
    tracer.patch(cli, "render_json", "cli.render")
    tracer.patch(
        arrangement, "dimension_function", "arrangement.dimension_function",
        tag=lambda args: tracer.kind, count=_count_dimension_function,
    )
    tracer.patch(arrangement, "is_transversal", "hilbert.transversal")
    tracer.patch(linalg, "rref", "linalg.rref")
    tracer.patch(
        hilbert, "compute_ps_family", "hilbert.compute_ps_family",
        count=_count_ps_family,
    )
    tracer.patch(hilbert, "hilbert_series_J", "hilbert.hilbert_series_J")
    tracer.patch(hilbert, "betti_numbers", "hilbert.betti_polynomial")
    tracer.patch(
        hilbert, "hilbert_polynomial_from_numerator", "hilbert.betti_polynomial"
    )
    tracer.patch(hilbert, "transversal_series", "hilbert.transversal")
    tracer.patch(hilbert, "transversal_hilbert_function", "hilbert.transversal")
    tracer.patch(
        oracle, "dim_intersection_ideal", "oracle.dim_intersection_ideal",
        tag=_degree_tag, count=_count_dim_intersection,
    )
    tracer.patch(
        oracle, "dim_product_ideal", "oracle.dim_product_ideal",
        tag=_degree_tag, count=_count_dim_product,
    )
    tracer.patch(
        linalg.IntEchelon, "add", "linalg.IntEchelon.add", count=_count_echelon_add
    )
    tracer.patch(gpca, "estimate_hilbert_value", "gpca.estimate_hilbert_value")
    tracer.patch(gpca, "recover_codimensions", "gpca.recover_codimensions")


# ---------------------------------------------------------------------------
# aggregation

def summarize(spans: list, counts: dict) -> dict:
    """Per-layer busy and self times, calls, and the counters.

    Busy time is the summed span duration; self time subtracts the direct
    child spans, so the self times of one item add up to its root span.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict = defaultdict(int)
    busy: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    for idx, (name, start, end, parent, _, tag) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        busy[name] += duration
        self_time[name] += duration - child_time[idx]
        if tag:
            busy[f"{name}.{tag}"] += duration
    return {
        "calls": dict(calls),
        "busy": dict(busy),
        "self": dict(self_time),
        "counts": dict(counts),
    }
