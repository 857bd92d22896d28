#!/usr/bin/env python3
"""Cross-check the branch-and-bound search against the exhaustive
reference on seeded random instances, and on the same seeds' instances
with a cloned task, and optionally check that tightening constraints
never improves the best case, and that the relaxed instance's proven
optimum, given to the tightened solve as its floor, changes no verdict.

Every instance stays inside the reference scheduler's enumeration
bounds, so disagreement is a bug in one of the two routes, not noise.

    python3 scripts/random_equivalence.py --instances 50 --seed 7
    python3 scripts/random_equivalence.py --monotonic --pairs 200
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

# run from a checkout without installing: its src comes first
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ddtwin.instances import (random_instance, replicated_instance,
                              tighten_instance)
from ddtwin.oracle import brute_force_oracle
from ddtwin.solver import SolveOpts, solve_best_case


def check_equivalence(generate, n_instances: int, seed: int,
                      budget: int) -> int:
    failures = 0
    feasible = 0
    t0 = time.time()
    for k in range(n_instances):
        inst = generate(seed + k)
        ref = brute_force_oracle(inst.graph, inst.topology, inst.catalog)
        out = solve_best_case(inst.graph, inst.topology, inst.catalog,
                              SolveOpts(budget_nodes=budget))
        if not ref.feasible:
            ok = out.status == "infeasible"
            label = "infeasible"
        else:
            ok = out.status == "optimal" and out.makespan == ref.makespan
            label = f"makespan {ref.makespan}"
            feasible += 1
        if not ok:
            failures += 1
            print(f"MISMATCH {generate.__name__} seed={seed + k}: reference "
                  f"{label}, search {out.status} {out.makespan}")
    dt = time.time() - t0
    print(f"{generate.__name__}: {n_instances} instances ({feasible} feasible), "
          f"{failures} mismatches, {dt:.1f}s")
    return failures


def check_monotonic(n_pairs: int, seed: int, budget: int) -> int:
    failures = 0
    floored_pairs = 0
    t0 = time.time()
    opts = SolveOpts(budget_nodes=budget)
    for k in range(n_pairs):
        inst = random_instance(seed + k)
        tight = tighten_instance(inst, seed + 100_000 + k)
        a = solve_best_case(inst.graph, inst.topology, inst.catalog, opts)
        b = solve_best_case(tight.graph, tight.topology, tight.catalog, opts)
        # only proven outcomes participate; budget exhaustion proves nothing
        if a.status == "infeasible" and b.status == "optimal":
            failures += 1
            print(f"MONOTONICITY seed={seed + k}: infeasible relaxed to "
                  f"feasible under tightening")
        elif a.status == "optimal" and b.status == "optimal" \
                and b.makespan < a.makespan:
            failures += 1
            print(f"MONOTONICITY seed={seed + k}: best case improved "
                  f"{a.makespan} -> {b.makespan} under tightening")
        if a.status == "optimal":
            floored_pairs += 1
            floored = solve_best_case(
                tight.graph, tight.topology, tight.catalog,
                dataclasses.replace(opts, floor=a.makespan))
            if (floored.status, floored.makespan) != (b.status, b.makespan):
                failures += 1
                print(f"FLOOR seed={seed + k}: floor {a.makespan} turned "
                      f"{b.status} {b.makespan} into {floored.status} "
                      f"{floored.makespan}")
    dt = time.time() - t0
    print(f"{n_pairs} pairs ({floored_pairs} also solved with a floor), "
          f"{failures} violations, {dt:.1f}s")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--pairs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--budget", type=int, default=2_000_000)
    ap.add_argument("--monotonic", action="store_true",
                    help="run the tightening check instead of equivalence")
    args = ap.parse_args()
    if args.monotonic:
        return 1 if check_monotonic(args.pairs, args.seed, args.budget) else 0
    failures = sum(check_equivalence(generate, args.instances, args.seed,
                                     args.budget)
                   for generate in (random_instance, replicated_instance))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
