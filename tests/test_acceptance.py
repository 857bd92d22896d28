"""Release gate: one test per shipping criterion, each with its stated
tolerance and time budget.

Run with -v to get a pass/fail line per criterion. These tests repeat a
few checks made elsewhere in the suite on purpose: the gate must stay
self-contained so a red line here always names the broken promise.
"""

import time

from ddtwin import cli
from ddtwin.graph import Buffer, ExternalInput, TaskGraph, TaskInstance
from ddtwin.instances import random_instance, tighten_instance
from ddtwin.manifests import (FunctionMetadata, TimingEqualityDoc,
                              TimingEquationDoc, parse_constraint_stream)
from ddtwin.oracle import brute_force_oracle
from ddtwin.patterns import generate_patterns_from_topology
from ddtwin.schedule import (BUFFER_OVERFLOW, CORE_OVERLAP, DEADLINE_MISS,
                             LAG_VIOLATION, PATTERN_VIOLATION,
                             READ_BEFORE_WRITE, Schedule, Transfer,
                             check_schedule)
from ddtwin.scenarios import latency_delta_pct, parse_scenario_csv
from ddtwin.solver import solve_best_case
from conftest import make_topology


def test_gate1_bundled_fixture_parses_to_reference_structures(paper_dir):
    """The shipped channel-estimation fixture elaborates, in under a
    second, into exactly the task graph, constraint docs, pattern
    catalog, and SDK record its sources describe."""
    t0 = time.perf_counter()
    loaded = cli.load_run(cli.load_run_manifest(paper_dir / "manifest.yaml"))
    graph = cli.build_graph(loaded)
    docs = parse_constraint_stream((paper_dir / "constraints.yaml").read_text())
    sdk = parse_constraint_stream((paper_dir / "sdk.yaml").read_text())
    elapsed = time.perf_counter() - t0

    # flow: 2 UEs x 4 antennas of estimation plus 2 send stages
    assert len(graph.tasks) == 10
    assert len(graph.buffers) == 18
    chest = graph.tasks["srsChestProc_perUE_perRxAnt_flow[i=1,j=1]"]
    assert (chest.runtime, chest.internalsize) == (5200, 400_000)
    assert chest.inputs == ()
    assert [e.stream for e in chest.external_inputs] \
        == ["srsIQSymbols[1]", "ueSpecific_srsInfo[1]"]
    est = graph.buffers["perUE_srsChestEst[1][1]"]
    assert est.size == 60_000
    assert est.definer == "srsChestProc_perUE_perRxAnt_flow[i=1,j=1]"
    assert est.observers == ("sendSrsChest_to_MAC_flow[i=1]",)
    assert len(est.allowed_patterns) == 16
    # the SDK's underscored spellings come out in the catalog's own
    assert est.allowed_patterns == tuple(p.name for p in loaded.catalog.patterns)

    # constraint docs: the period pin plus one bound equation
    pin, equation = docs
    assert pin == TimingEqualityDoc(name="Modem_Period",
                                    variable_name="modem_period",
                                    op="equal", value=1_000_000)
    assert isinstance(equation, TimingEquationDoc)
    assert equation.equation == "C <= A*370 + B < 500"
    assert equation.bindings == {"C": "grid_period", "A": "num_ue1",
                                 "B": "gp_base"}
    assert graph.deadline == 1_000_000        # the pin became the slot

    # pattern catalog: 4 movement classes x 4 cores
    assert len(loaded.catalog.patterns) == 16
    assert "big_delay.c_3.L3_0.DDR_0.accL3_0" in \
        {p.name for p in loaded.catalog.patterns}

    # SDK record for the one fully specified modifier; it names the whole
    # catalog in catalog order, each name equal by canonical form (the
    # two sources spell pattern 0 differently)
    (meta,) = sdk
    assert isinstance(meta, FunctionMetadata)
    assert (meta.name, meta.elementsize, meta.internalsize, meta.runtime) \
        == ("NR5G1_DL_PDSCH_SYM", 2_800_000, 8_000_000, 7200)
    assert len(meta.available_patterns) == len(loaded.catalog.patterns)
    for listed, entry in zip(meta.available_patterns, loaded.catalog.patterns):
        assert loaded.catalog.lookup(listed) is entry, (listed, entry.name)

    assert elapsed < 1.0


def test_gate2_exact_solver_matches_brute_force_on_50_instances():
    """Dual-route check: on 50 seeded instances inside the oracle's
    envelope (<=8 tasks, 2 cores, <=3 patterns/buffer), exact-mode
    makespans equal the enumerated optimum exactly, within 60 s."""
    t0 = time.perf_counter()
    for seed in range(50):
        inst = random_instance(seed)
        res = solve_best_case(inst.graph, inst.topology, inst.catalog)
        ora = brute_force_oracle(inst.graph, inst.topology, inst.catalog)
        if ora.feasible:
            assert res.status == "optimal", (seed, res.status)
            assert res.makespan == ora.makespan, (seed, res.makespan,
                                                  ora.makespan)
        else:
            assert res.status == "infeasible", (seed, res.status)
    assert time.perf_counter() - t0 < 60.0


def test_gate3_tightening_never_improves_the_best_case():
    """Monotonicity: 200 seeded (instance, tightened-instance) pairs;
    the tightened twin's optimum never beats the original and proven
    infeasibility survives tightening; zero violations, within 120 s."""
    t0 = time.perf_counter()
    for seed in range(200):
        inst = random_instance(seed, max_tasks=6)
        tight = tighten_instance(inst, seed + 10_000)
        a = solve_best_case(inst.graph, inst.topology, inst.catalog)
        b = solve_best_case(tight.graph, tight.topology, tight.catalog)
        assert a.status in ("optimal", "infeasible"), (seed, a.status)
        assert b.status in ("optimal", "infeasible"), (seed, b.status)
        if a.status == "infeasible":
            assert b.status == "infeasible", seed
        elif b.status == "optimal":
            assert b.makespan >= a.makespan, (seed, a.makespan, b.makespan)
    assert time.perf_counter() - t0 < 120.0


def test_gate4_reference_delta_arithmetic():
    """The integer delta rounding reproduces the reference scenario
    table: raw latencies against a 207,800-cycle baseline give the
    published percentages within +/-1 each."""
    raws = [207_800, 239_400, 420_000, 464_600, 578_000, 458_400]
    expected = [None, 15, 102, 124, 178, 120]
    for raw, want in zip(raws, expected):
        if want is None:
            assert latency_delta_pct(raw, raws[0]) == 0     # baseline row
        else:
            got = latency_delta_pct(raw, raws[0])
            assert abs(got - want) <= 1, (raw, got, want)


def test_gate5_downlink_analog_reproduces_reference_structure(du_runs):
    """The bundled downlink analog lands a feasible 4-core baseline
    within +/-25% of one fifth of the slot, orders the eviction
    scenarios baseline < small < config < large < combined with the
    +1-flow case between small and combined, and classifies small as
    MODERATE and config as HIGH; one full run stays under 5 minutes."""
    run = du_runs[0]
    assert run["exit"] == 0
    rows = {r.name: r for r in
            parse_scenario_csv(run["csv"].decode(), 0)}

    baseline = rows["baseline"].latency
    slot_fifth = 1_000_000 // 5
    assert abs(baseline - slot_fifth) <= slot_fifth // 4, baseline

    order = [baseline,
             rows["evict-small"].latency,
             rows["evict-fn-dlConfig"].latency,
             rows["evict-large"].latency,
             rows["evict-combined"].latency]
    assert order == sorted(order) and len(set(order)) == 5, order
    assert rows["evict-small"].latency < rows["add-flow-dlFlow"].latency \
        < rows["evict-combined"].latency

    assert rows["evict-small"].risk == "MODERATE"
    assert rows["evict-fn-dlConfig"].risk == "HIGH"
    assert run["seconds"] < 300.0


def test_gate6_violation_taxonomy_coverage():
    """Each checker verdict kind fires on a hand-built schedule crafted
    to breach exactly that rule, and schedules produced by the solver
    never trigger any of them."""
    topo = make_topology(2)
    catalog = generate_patterns_from_topology(topo)
    all_patterns = tuple(p.name for p in catalog.patterns)
    pipe0 = "pipeline.c_0.L3_0"
    near0 = "L2toL2.c_0.L3_0.accL3_0"

    def chain(deadline=1_000_000, max_start_lag=None, patterns=all_patterns,
              scratch=0):
        t0 = TaskInstance(id="t0", function="t0", runtime=100,
                          internalsize=scratch, outputs=("b0",),
                          external_inputs=(ExternalInput("port", 0),))
        t1 = TaskInstance(id="t1", function="t1", runtime=200,
                          internalsize=0, inputs=("b0",), outputs=("b1",))
        return TaskGraph(
            tasks={"t0": t0, "t1": t1},
            buffers={"b0": Buffer(id="b0", size=1000, definer="t0",
                                  observers=("t1",),
                                  allowed_patterns=patterns),
                     "b1": Buffer(id="b1", size=1000, definer="t1",
                                  allowed_patterns=all_patterns)},
            deadline=deadline, max_start_lag=max_start_lag)

    def sched(t1_start, b0=(pipe0, 100, 0)):
        return Schedule(
            assignments={"t0": (0, 0), "t1": (0, t1_start)},
            transfers={"b0": Transfer(*b0),
                       "b1": Transfer(pipe0, t1_start + 200, 0)})

    cases = [
        (READ_BEFORE_WRITE, chain(), sched(100, b0=(pipe0, 50, 0))),
        (BUFFER_OVERFLOW, chain(scratch=9_000_000), sched(100)),
        (DEADLINE_MISS, chain(deadline=250), sched(100)),
        (PATTERN_VIOLATION, chain(patterns=(pipe0,)),
         sched(316, b0=(near0, 100, 216))),
        (LAG_VIOLATION, chain(max_start_lag=0), sched(200)),
    ]
    for want, g, s in cases:
        got = {v.kind for v in check_schedule(s, g, topo, catalog)}
        assert got == {want}, (want, got)

    # CORE_OVERLAP needs two independent tasks contending for one core
    overlap = TaskGraph(
        tasks={t: TaskInstance(id=t, function=t, runtime=100, internalsize=0,
                               outputs=(f"junk_{t}",)) for t in ("t0", "t1")},
        buffers={f"junk_{t}": Buffer(id=f"junk_{t}", size=1000, definer=t,
                                     allowed_patterns=all_patterns)
                 for t in ("t0", "t1")},
        deadline=1_000_000)
    s = Schedule(assignments={"t0": (0, 0), "t1": (0, 50)},
                 transfers={"junk_t0": Transfer(pipe0, 100, 0),
                            "junk_t1": Transfer(pipe0, 150, 0)})
    got = {v.kind for v in check_schedule(s, overlap, topo, catalog)}
    assert got == {CORE_OVERLAP}

    produced = 0
    for seed in range(40):
        inst = random_instance(seed)
        res = solve_best_case(inst.graph, inst.topology, inst.catalog)
        if res.schedule is not None:
            produced += 1
            assert check_schedule(res.schedule, inst.graph, inst.topology,
                                  inst.catalog) == [], seed
    assert produced >= 15          # the claim must rest on real schedules


def test_gate7_scenario_reruns_are_byte_identical(du_runs):
    """Same seed, same manifest: two scenario evaluations of the
    downlink analog write byte-identical CSV artifacts."""
    first, second = du_runs
    assert first["exit"] == second["exit"] == 0
    assert first["csv"] == second["csv"]


def test_shipped_du_analog_sample_matches_a_fresh_run(du_runs, du_dir):
    """The committed ``out/`` sample is what the shipped manifest
    produces, byte for byte."""
    run = du_runs[0]
    assert run["csv"] == (du_dir / "out" / "scenarios.csv").read_bytes()
    assert run["table"] == (du_dir / "out" / "scenarios.txt").read_text()
