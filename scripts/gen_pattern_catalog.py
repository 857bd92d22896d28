#!/usr/bin/env python3
"""Generate a movement-pattern catalog XML from a topology YAML.

Emits the same catalog the toolchain synthesizes internally when a run
manifest names no pattern file, so the output is a starting point for
hand-edited catalogs.  A run that names the output gets the same search
as one that names no pattern file: the search derives its classes of
interchangeable cores from whichever catalog it is given.

    python3 scripts/gen_pattern_catalog.py topology.yaml > patterns.xml
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# run from a checkout without installing: its src comes first
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ddtwin.hardware import parse_topology
from ddtwin.patterns import generate_patterns_from_topology, \
    serialize_pattern_catalog


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("topology", help="topology YAML file")
    ap.add_argument("-o", "--out", default=None,
                    help="output path (default stdout)")
    args = ap.parse_args()

    with open(args.topology) as f:
        topology = parse_topology(f.read())
    xml = serialize_pattern_catalog(generate_patterns_from_topology(topology))
    if args.out:
        with open(args.out, "w") as f:
            f.write(xml)
    else:
        sys.stdout.write(xml)
    return 0


if __name__ == "__main__":
    sys.exit(main())
