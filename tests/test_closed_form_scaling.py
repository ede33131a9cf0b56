"""Smoke test of benchmarks/closed_form_scaling.py: one rung of one kind
still runs every timed layer, so a renamed layer fails here instead of
when the benchmark is next recorded."""

import json

import closed_form_scaling


def test_one_rung_records_every_layer(tmp_path):
    out = tmp_path / "bench.json"
    argv = ["--label", "smoke", "--max-m", "8", "--kinds", "hyperplanes", "--out", str(out)]
    assert closed_form_scaling.main(argv) == 0
    doc = json.loads(out.read_text())
    rungs = doc["smoke"]["rungs"]
    assert set(rungs) == {f"hyperplanes m={m}" for m in closed_form_scaling.RUNGS}
    rung = rungs["hyperplanes m=8"]
    assert {key for key in rung if key.endswith("_s")} == {
        "dimension_function_s",
        "compute_ps_family_s",
        "analyze_document_s",
        "cli_analyze_json_s",
    }
    assert all(rung[key] > 0 for key in rung if key.endswith("_s"))
    assert all(rungs[f"hyperplanes m={m}"] is None for m in closed_form_scaling.RUNGS if m > 8)
