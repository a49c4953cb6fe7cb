#!/usr/bin/env python3
"""Recompute every pin in tests/golden.json and print each one that moved.

A change to dataset bytes is made on purpose: bump pipeline.SCHEMA_VERSION,
run this script, and commit the diff of tests/golden.json. When
SCHEMA_VERSION is above the table's version, the script writes the new
values and version into the table. At the same version it writes nothing
and exits 1 if anything moved. A table whose version is above
SCHEMA_VERSION exits 2 before anything is built.
"""

import argparse
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from helpers import GOLDEN_TABLE, moved  # noqa: E402
from traceforge.pipeline import SCHEMA_VERSION  # noqa: E402


def dump_table(table) -> str:
    """The table as committed: one entry per line, so that a moved pin is
    one changed line in its diff."""
    rows = ",\n".join("    " + json.dumps(entry, ensure_ascii=False)
                      for entry in table["entries"])
    return (f'{{\n  "schema_version": {table["schema_version"]},\n'
            f'  "entries": [\n{rows}\n  ]\n}}\n')


def regolden(path) -> int:
    """Recompute the table at ``path``; returns the exit status."""
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    version = table["schema_version"]
    if version > SCHEMA_VERSION:
        print(f"{path} is at schema version {version}, above "
              f"pipeline.SCHEMA_VERSION {SCHEMA_VERSION}", file=sys.stderr)
        return 2
    changes = moved(table["entries"])
    for name, (old, new) in changes.items():
        print(f"{name}: {old} -> {new}")
    if version == SCHEMA_VERSION:
        if changes:
            print(f"{len(changes)} of {len(table['entries'])} pins moved at "
                  f"schema version {version}; bump pipeline.SCHEMA_VERSION "
                  f"to change dataset bytes", file=sys.stderr)
            return 1
        print(f"nothing moved at schema version {version}")
        return 0
    for entry in table["entries"]:
        if entry["name"] in changes:
            entry["value"] = changes[entry["name"]][1]
    table["schema_version"] = SCHEMA_VERSION
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(dump_table(table))
    os.replace(tmp, path)
    print(f"wrote {path} at schema version {SCHEMA_VERSION} (was {version}): "
          f"{len(changes)} of {len(table['entries'])} pins moved")
    return 0


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__).parse_args()
    sys.exit(regolden(GOLDEN_TABLE))
