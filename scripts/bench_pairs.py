#!/usr/bin/env python3
"""Compare the working tree against a parent revision on the benchmark, in
alternating pairs, and write what the pairs show to ``BENCH_<tag>.json``.

    python3 scripts/bench_pairs.py --parent HEAD --tag settle_cores \\
        --workload du_exact --workload paper_proof --claim cpu_s=du_exact \\
        --pairs 10 --first-seed 61

1. ``git archive`` extracts the parent revision into a scratch directory.
2. For each workload and each of ``--pairs`` seeds, ``perfbench/run.py
   --trace 0`` runs once in that copy and once in the working tree, one
   after the other and never concurrently, for the ``run_seconds`` that
   ``BENCHMARK.json`` sets; the parent runs first at even pair numbers
   and the change first at odd ones.  Each side compiles
   into its own bytecode cache under the scratch directory, so neither
   starts with a cache the other lacks.
3. For each end-to-end metric that ``BENCHMARK.json`` declares, the
   result holds each pair's values, each side's median and quartiles,
   the number of pairs the change wins (ties count for neither) and a
   verdict.  A claimed metric is a ``gain`` when the change wins at least
   nine tenths of the pairs, the medians differ, in the better
   direction, by more than the parent's interquartile range, and the
   change's runs fail no more operations in all than the parent's; it
   is ``not met`` otherwise.  Any other metric is ``worse`` when the
   change's median is worse than the parent's by more than the metric's
   bound (a fraction of the parent's median), ``unresolved`` when the
   parent's interquartile range is wider than that bound and not every
   change run beats every parent run, and ``within bound`` otherwise.

Only the standard library is used; ``perfbench/run.py`` needs what the
benchmark needs.  Runs that fail are recorded with their exit status and
left out of the statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GAIN_SHARE = 0.9


def extract(revision: str, dest: Path) -> str:
    """Write the files of ``revision`` under ``dest``; returns its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", revision + "^{commit}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = dest.parent / "parent.tar"
    with archive.open("wb") as out:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                       check=True, stdout=out)
    with tarfile.open(archive) as tar:
        # the safe "data" filter where this Python has it (3.10.12 and later)
        tar.extraction_filter = getattr(tarfile, "data_filter",
                                        lambda member, path: member)
        tar.extractall(dest)
    archive.unlink()
    return commit


def run_side(tree: Path, pycache: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line, or the
    exit status and the tail of its error output when it fails."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {**metrics, "failed": result["failed"],
            "attempted": result["attempted"]}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict], claimed: set[str]
              ) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the pairs
    the change wins and the verdict (see the module docstring)."""
    failed = {side: sum(p[side]["failed"] for p in pairs)
              for side in ("parent", "change")}
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        parent = [a for a, _ in both]
        change = [b for _, b in both]
        wins = sum((b < a) if lower else (b > a) for a, b in both)
        p, c = spread(parent), spread(change)
        gap = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
        iqr = (p["q3"] - p["q1"]) if p["q1"] is not None else 0.0
        if name in claimed:
            verdict = ("gain" if wins >= GAIN_SHARE * len(both) and gap > iqr
                       and failed["change"] <= failed["parent"] else "not met")
        else:
            allowed = metric["bound"] * abs(p["median"])
            beats_all = (max(change) < min(parent)) if lower \
                else (min(change) > max(parent))
            if -gap > allowed:
                verdict = "worse"
            elif iqr > allowed and not beats_all:
                verdict = "unresolved"
            else:
                verdict = "within bound"
        summary[name] = {"parent": p, "change": c, "change_better_pairs": wins,
                         "pairs": len(both), "verdict": verdict}
    return summary


def claim(text: str) -> tuple[str, str]:
    metric, sep, workload = text.partition("=")
    if not (metric and sep and workload):
        raise argparse.ArgumentTypeError(f"{text!r} is not METRIC=WORKLOAD")
    return metric, workload


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description="Run the benchmark in alternating parent/change pairs "
                    "and write BENCH_<tag>.json.")
    ap.add_argument("--parent", default="HEAD",
                    help="the revision to compare against (default HEAD)")
    ap.add_argument("--tag", required=True,
                    help="names the result file BENCH_<tag>.json")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of perfbench/workloads.json; repeatable")
    ap.add_argument("--claim", action="append", default=[], type=claim,
                    metavar="METRIC=WORKLOAD",
                    help="an end-to-end metric claimed to improve on a "
                         "workload; repeatable")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1,
                    help="pair k runs seed first-seed + k")
    ap.add_argument("--out", type=Path, default=ROOT,
                    help="directory for the result file (default: the "
                         "root of the checkout)")
    ap.add_argument("--scratch", type=Path, default=None,
                    help="directory for the parent copy and the bytecode "
                         "caches (default: a temporary one, removed after)")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    claims: dict[str, set[str]] = {}
    for metric, workload in args.claim:
        claims.setdefault(workload, set()).add(metric)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    parent_tree = scratch / "parent"
    if parent_tree.exists():
        shutil.rmtree(parent_tree)
    parent_tree.mkdir(parents=True)
    try:
        commit = extract(args.parent, parent_tree)
        sides = {"parent": parent_tree, "change": ROOT}
        record = {
            "about": (f"{args.pairs} alternating parent/change pairs per "
                      f"workload of `python3 perfbench/run.py --workload W "
                      f"--seed N --seconds {seconds:g} --trace 0`, "
                      f"seeds {args.first_seed}-"
                      f"{args.first_seed + args.pairs - 1}; the parent ran "
                      f"first in even pairs; quartiles by "
                      f"statistics.quantiles (inclusive)."),
            "parent_commit": commit,
            "workloads": {},
        }
        for workload in args.workload:
            pairs = []
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(sides[side], scratch / f"pycache-{side}",
                                          workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"{pair[side].get('cpu_s', pair[side])}", flush=True)
                pairs.append(pair)
            ok = [p for p in pairs if "exit" not in p["parent"]
                  and "exit" not in p["change"]]
            record["workloads"][workload] = {
                "pairs": pairs,
                "summary": summarize(ok, metrics, claims.get(workload, set())),
            }
    finally:
        if args.scratch is None:
            shutil.rmtree(scratch, ignore_errors=True)

    out = args.out / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, result in record["workloads"].items():
        for name, s in result["summary"].items():
            print(f"{workload} {name}: parent {s['parent']['median']:.6g}, "
                  f"change {s['change']['median']:.6g}, change better in "
                  f"{s['change_better_pairs']}/{s['pairs']}: {s['verdict']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
