#!/usr/bin/env python3
"""Count the bytecodes one ``ddtwin scenarios`` run executes, by phase.

    python3 scripts/count_bytecodes.py --manifest src/ddtwin/fixtures/paper/manifest.yaml

Every bytecode executed in a frame of the ``ddtwin`` package counts once,
under the phase of the nearest frame on the call stack that names one:

  plan    building a search plan (``SearchPlan``), the root's bound
          included, and binding it to a search;
  seed    the greedy seed portfolio (``_Search._seed``);
  search  branch-and-bound (``_Search._expand``);
  check   the independent checker (``check_schedule``), wherever called;
  other   everything else: loading, elaboration, scenarios, output.

``total`` sums those five.  A last line, ``library``, counts apart the
bytecodes executed in Python frames outside the package that the run
reaches: the standard library's and PyYAML's, for instance.  Built-in
functions written in C execute no bytecode and count nowhere.  The
script parses its own command line with argparse, which imports
``locale`` before the count starts, so a first-use import that the
package's code would otherwise trigger may be missing from ``library``.

The run's outputs go to a temporary directory and its standard output is
dropped; the script exits with the run's status.  String hashing is fixed (the script re-runs itself with
``PYTHONHASHSEED=0`` if needed), so two runs of one tree print the same
counts, which makes them fit to quote next to timings.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
from pathlib import Path

# run from a checkout without installing: its src comes first
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

PHASES = {
    "SearchPlan.__init__": "plan",
    "SearchPlan.narrowed": "plan",
    "_Search.__init__": "plan",
    "_Search._seed": "seed",
    "_Search._expand": "search",
    "check_schedule": "check",
}
ORDER = ("plan", "seed", "search", "check", "other")


def count(manifest: str) -> tuple[dict[str, int], int, int]:
    """The package's bytecodes by phase, the library's bytecodes, and the
    exit status of the run."""
    import ddtwin
    from ddtwin.cli import main

    package = str(Path(ddtwin.__file__).resolve().parent) + os.sep
    counts = dict.fromkeys(ORDER, 0)
    library = [0]
    # a library frame keeps its caller's phase for the package frames
    # it calls back into
    phases = ["other"]

    def local(frame, event, arg):
        if event == "opcode":
            counts[phases[-1]] += 1
        elif event == "return":
            phases.pop()
        return local

    def outside(frame, event, arg):
        if event == "opcode":
            library[0] += 1
        elif event == "return":
            phases.pop()
        return outside

    def call(frame, event, arg):
        code = frame.f_code
        frame.f_trace_opcodes = True
        if not code.co_filename.startswith(package):
            phases.append(phases[-1])
            return outside
        phases.append(PHASES.get(code.co_qualname, phases[-1]))
        return local

    with tempfile.TemporaryDirectory() as out, \
            open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        sys.settrace(call)
        try:
            code = main(["scenarios", "--manifest", manifest, "--out", out])
        finally:
            sys.settrace(None)
    return counts, library[0], code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--manifest", required=True,
                        help="the kind: run manifest to run scenarios on")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    counts, library, code = count(args.manifest)
    for phase in ORDER:
        print(f"{phase:<7}{counts[phase]:>12,}")
    print(f"{'total':<7}{sum(counts.values()):>12,}")
    print(f"{'library':<7}{library:>12,}")
    if code:
        print(f"ddtwin scenarios exited {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
