"""Smoke test of benchmarks/recovery_scaling.py: its spies still see the
certified_pivots steps it labels the routes by, so a rename fails here
instead of mislabelling a recorded benchmark."""

import json
from collections import Counter
from pathlib import Path

import recovery_scaling
from subspace_hilbert import linalg
from subspace_hilbert.cli import parse_point_document
from subspace_hilbert.gpca import PointCloud


def test_open_chain_routes():
    # full column rank at degree 1, then three independent rays under six
    # and ten monomials: full row rank, which proves no pivots
    pc = PointCloud(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    entries = recovery_scaling.measure(pc, 1, repeat=1)
    assert [e["route"] for e in entries] == ["full rank mod p"] * 3
    assert [e["value"] for e in entries] == [0, 3, 7]


def test_fallback_route(monkeypatch):
    # rank 2 over Q, 1 mod 2, and other pivots mod 3: no certificate
    monkeypatch.setattr(linalg, "LIFT_PRIMES", (2, 3))
    pc = PointCloud(2, [[1, 1], [1, 3]])
    entries = recovery_scaling.measure(pc, 1, repeat=1)
    assert [e["route"] for e in entries] == ["fallback"] * 2
    assert [e["value"] for e in entries] == [0, 1]


def test_seed_routes_match_the_record(tmp_path: Path):
    # every seed-1 run certifies its first degree (a single line has full
    # row rank at every degree) and closes the rest by leading monomials
    routes = Counter()
    for item in recovery_scaling.gen.generate("recover-points", recovery_scaling.SEED, tmp_path):
        m = item["truth"]["m"]
        for argv in item["argvs"]:
            path = Path(argv[argv.index("--points") + 1])
            cloud = parse_point_document(json.loads(path.read_text()), allow_float=False)
            run = [e["route"] for e in recovery_scaling.measure(cloud, m, repeat=1)]
            if run[0] == "full rank mod p":
                assert set(run) == {"full rank mod p"}
            else:
                assert run == ["certificate"] + ["leading monomials"] * (len(run) - 1)
            routes.update(run)
    recorded = json.loads(recovery_scaling.DEFAULT_OUT.read_text())["totals"]
    assert {r: recorded.get(r, 0) for r in recovery_scaling.ROUTES} == {
        r: routes[r] for r in recovery_scaling.ROUTES
    }
