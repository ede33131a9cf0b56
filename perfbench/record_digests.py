"""Record the sha256 of every closed-form item's canonical ``--json`` bytes.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run from the repository root.  The generator redraws every closed-form item
until its intersections are those of a general choice for its kind, so the
report depends on the item's shape alone: the digests are recorded once, on
the default seed, and ``run.py`` checks them on every seed.  Re-record only
when the report format is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import gen
from run import DEFAULT_SEED, DIGESTS
from worker import run_item


def main() -> int:
    from subspace_hilbert import cli

    work = Path(".perfbench") / "digests"
    try:
        items = gen.generate("closed-form", DEFAULT_SEED, work)
        digests = {}
        for item in items:
            _, code, out, err = run_item(cli.main, item["argvs"][0])
            if code != 0:
                raise SystemExit(f"{item['id']} failed: {err}")
            digests[item["id"]] = hashlib.sha256(out.encode()).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table = {"closed-form": digests}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
