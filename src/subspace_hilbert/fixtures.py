"""Named example arrangements shipped with the package.

Four small arrangements exercise every code path.  Two live in Q^3: the
coordinate axes (transversal) and a coplanar triple of lines that shares the
axes' dimension function while its intersection ideal picks up a linear form.
Two live in Q^4: triples of planes through a common line, one spanning the
ambient space and one squeezed into a hyperplane.  The Q^4 pair again shares
a dimension function, so the product-ideal series agree while the
intersection-ideal tables differ — the standard witness that only the product
ideal's series is determined by the dimension function.

Each fixture is defined only by its JSON document under ``data/`` in the
package, in the arrangement file format the command-line interface reads.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .arrangement import Arrangement

# selftest reports the fixtures in this order
_NAMES = (
    "three-coordinate-axes",
    "three-coplanar-lines",
    "three-axis-planes",
    "three-pencil-planes",
)


def fixture_names() -> tuple[str, ...]:
    return _NAMES


def fixture_path(name: str) -> Path:
    """Filesystem path of the shipped JSON document for a fixture."""
    if name not in _NAMES:
        raise ValueError(f"unknown fixture {name!r}")
    return Path(str(resources.files(__package__) / "data" / f"{name}.json"))


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def fixture_arrangement(name: str) -> Arrangement:
    """The fixture's arrangement, parsed from its shipped file."""
    # imported here because cli imports this module
    from .cli import parse_arrangement_document

    arrangement, _ = parse_arrangement_document(json.loads(fixture_text(name)))
    return arrangement
