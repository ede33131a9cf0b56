"""The benchmark's layer tracer (``perfbench/layers.py``) patches names the
package still has, and puts every one of them back."""

import sys
from pathlib import Path

# every module install() patches, imported before the attributes are read
from subspace_hilbert import arrangement, cli, gpca, hilbert, linalg, oracle  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def attributes() -> dict:
    """Every attribute of the package's modules and of ``IntEchelon``, by
    (namespace, name)."""
    namespaces = [linalg.IntEchelon] + [
        mod for key, mod in sys.modules.items() if key.startswith("subspace_hilbert")
    ]
    return {(ns.__name__, key): value for ns in namespaces for key, value in vars(ns).items()}


def test_install_then_uninstall_restores_every_patched_attribute(monkeypatch):
    # a renamed patch target fails here rather than in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    before = attributes()
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        during = attributes()
    finally:
        tracer.uninstall()
    after = attributes()
    patched = {key for key, value in before.items() if during[key] is not value}
    assert {("IntEchelon", "add"), ("subspace_hilbert.gpca", "estimate_hilbert_value")} <= patched
    assert all(during[key].__wrapped__ is before[key] for key in patched)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
