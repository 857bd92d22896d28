"""Best-case schedule search over the constraint database.

The same query engine answers two opposite questions.  Construction asks
"is there a feasible placement, and how fast is it" - the returned
schedule seeds deployment.  Test generation asks "is there provably NO
feasible placement" - an exhausted search is the off-nominal witness.
Budget exhaustion is therefore reported as ``unknown`` and never
conflated with infeasibility.

The search enumerates the canonical greedy policy class: a schedule is
generated by a topological task permutation, a core assignment, and a
per-buffer pattern choice; task starts and transfer starts then follow
greedily (earliest data-ready slot on the core, earliest contention-free
slot on the interconnect).  ``oracle.brute_force_oracle`` enumerates the
identical class exhaustively, which is what makes the two comparable on
small instances.

Branching is (frontier task) x (candidate core) x (pattern combo), with
never-used cores collapsed inside classes of interchangeable cores and
pattern options deduplicated when two choices are behaviorally
identical (equal cost, contention set, and residency memories).
Pruning uses a critical path bound, per-anchor serialization bounds,
three terms taken once at the root (one a core load bound), and a
buffer-occupancy check; every completed leaf is re-validated with the
independent constraint checker before it may become the incumbent.

The occupancy check reads totals.  A memory whose worst-case demand
(every buffer that may reside there, plus every task's scratch space for
a core L3) fits its capacity can never overflow, so only the others are
tracked.  Each search state carries each tracked memory's claim total,
the summed size of its claims; extending a claim to an observer's finish
adds nothing to it.  A memory never holds more than its total, so a
child sweeps only the memories it touches whose total exceeds capacity,
on their claims rebuilt from its placements and transfers: the claims an
incrementally grown copy would hold.  The parent passed the check and
nothing else changed, so the verdict is that of sweeping every memory
the placement grew.

The bound is incremental too.  Each search state carries the earliest
finish of every unplaced task, each anchor's transfer cycles beyond its
static floor, and ``floor``, the largest critical-path or anchor term seen
on the way down.  A child that placed task ``x`` recomputes the estimates
of ``x``'s descendants only, and the anchors its transfers touch.  That
equals a full recompute because no term ever falls: placing ``x`` leaves
every other task's estimate unchanged, a descendant's estimate can only
rise (a placed input's end is at least the estimate it replaces), anchor
loads only grow, and ``x``'s own old term, its estimated start plus its
downward rank, is covered by each observer's new term, or by the span
when no task observes ``x``'s outputs.  So the parent's floor never
exceeds the child's full bound, and the maximum of it and the recomputed
terms is that bound.

A caller may hand the search a floor, ``SolveOpts.floor``: a makespan it
has proven no schedule of the instance beats, such as the proven optimum
of an instance whose schedules include all of this one's, each timed the
same way.  The root's bound starts at the floor and every state hands it
on with the rest of the bound.  That prunes nothing the search needs:
every schedule below a child has a makespan at least the child's bound
and at least the floor, so when the larger of the two exceeds the cap,
no such schedule could become the incumbent or meet the deadline.  A
floor above the deadline thus proves the instance infeasible at the
root, and a seed at the floor is proven optimal before any node.

A caller may also hand the search an incumbent: a schedule of the
instance that the checker accepts, with its makespan, such as the seed
it already ran (``seed_best_case``) or a schedule of a narrower instance
that it re-checked on this one.  The search then runs no seed pass and
starts from it as from a seed; ``stats["seed_makespan"]`` is its
makespan, the makespan the search started from.  An incumbent with no
schedule says that the caller's seed found none.  The cap, the prunes
and the stop rule read the incumbent as they read a seed, so an
incumbent at the root's bound is optimal before any node.

The root raises its floor by three terms, computed once per plan and
handed down with the rest of the floor; every schedule of the instance
obeys them, so they prune nothing the search needs either.  The load
bound is the total runtime spread evenly over the cores; the other two
read the root's estimates.
An anchor is a maximal clique of self-contending patterns in the
catalog's contention relation (``PatternCatalog.anchors``).  Every placed
transfer is kept clear of each contending one, and every member of an
anchor contends with itself and with every other member, so no two
non-empty transfers through one anchor overlap.  The *head-body-tail*
term (Carlier, EJOR 1987) takes, per anchor, the buffers whose every
choice passes it.  Their transfers run one after another; none starts
before the least head (the definer's earliest finish, raised to the
buffer's release); together they last at least the sum of their least
durations; and once the last one ends, the observers of its buffer need
at least the least tail (a buffer's largest observer downward rank, or 0
without observers).  The *pipeline-or-pay* term covers a task ``j`` with
two or more input definers, whose input buffers each have a non-pipeline
choice and whose non-pipeline choices of two different buffers always
contend.  ``pipeline`` puts a buffer's definer and observers on one core,
so each definer either runs on ``j``'s core or sends every buffer to ``j``
by a non-pipeline transfer.  The k definers on ``j``'s core run back to
back, none starting before the least earliest start; the others'
transfers run back to back, none starting before the least earliest
finish.  ``j`` can start only after both, so the least over k of the
later of the two, plus ``j``'s downward rank, bounds the makespan.
Zero-cycle transfers overlap freely, but they add nothing to either
sum.  When the root's bound already reaches the seed's makespan, the
seed is optimal and no node is searched.

Each child is built in three steps, and a pruned one costs only the
first two.  ``_time`` times and checks it: the task's start, its *moves*
(its own output transfers, fitted against the parent's) and the
occupancy.  ``_bound`` writes the estimates of the task's descendants
into a small overlay by a plan fixed per task before the search (an
input the task defines is read from its moves, one a descendant defines
from the overlay, any other from the parent's transfer or estimate) and
bounds the child.  ``_commit`` builds only a survivor: it merges the
moves and the overlay into copies of the parent's maps and adds the
tasks the placement unlocks to the frontier, the unplaced tasks whose
gates are all placed.  Each check and the bound read what a child built
in full would hold, in the same order, so every node count, prune reason
and incumbent is as before.

Most children are pruned, and many are *settled*: counted as a node and
pruned with the label the full path would give, without being fitted,
swept or bounded.  Children are tried per (task, core) pair, whose start
is known before any pattern combo is.  A start that breaks the lag cap
settles every child of the pair as LAG_VIOLATION, the first check of
``_time``.  Otherwise two terms bound every child from below.  One is
the start plus the task's downward rank: each output ends at least its
least transfer cycles after the task's finish, an observer's estimated
start is at least that end, and the observer's path term adds its
downward rank; the span covers an output no task observes.  The
other is the state's floor, which every child's bound includes.  When
either exceeds the cap, every child is pruned, and the label is certain
when no output has an availability deadline and no tracked memory can
overflow (none is over capacity, and each claim total plus the most any
option of the core adds stays within capacity), so that only the bound
prunes: DEADLINE_MISS when the least bound passes the deadline, BOUND
when the largest does not.  Two terms bound every child from above.  A
fit moves a transfer only to the end of a placed transfer, which ends by
``state.span``, or of an earlier output of the task, so each output ends
by the latest of the finish, the span and its release, plus the summed
costliest options of the outputs; a descendant's new path term follows
from an output's end by at most an observer's downward rank.  Every
other path term is one ``state.floor`` covers, since it covers every
unplaced task's path term and every anchor's load, and a placement
raises an anchor's load by at most the summed largest extra of each
output's options: the floor plus that sum is the second.  The labels
stay exact with the root's terms, the load bound among them, in the
floor: a child's bound is at least its floor, and ``state.floor`` plus
that sum still bounds it from above.  A settled pair counts its children
one by one against the node budget, so a budget that runs out among
them stops the search at the node, and with the prune counts, of the
full path.  A pair's ``_Worst`` is made on its first use, so a solve
closed at the root makes none.

A transfer's earliest contention-free start is found in one scan of the
placed transfers sorted by start: an interval that contends and ends
after the candidate start moves the start to its end, and the scan stops
at the first interval starting after the candidate's end.  The start only
moves forward, so an interval already passed ends at or before it and
cannot block again; the result is the least contention-free start, the
same slot that rescanning until nothing moves reaches.  No transfer lasts
longer than the costliest choice of any buffer, so the scan skips the
intervals that start more than that before the candidate: they have
ended by then.

Interchangeable cores are opened least first.  Two cores are
interchangeable when swapping them maps the instance onto itself, and
``SearchPlan._core_groups`` tests that by one rule for every catalog,
parsed or generated.  The two cores share an L3, and their L2s have equal
capacity.  A pattern's role key is its canonical name with the tokens
naming the two cores swapped, and its defining and observing memories
with the two L2s swapped; every key names a pattern of the catalog, so
the swap maps the catalog onto itself one to one
(``PatternCatalog.swapped``).  That map keeps every contention bit, and
with it the anchors, which contention defines.  It maps every buffer's
set of allowed positions onto itself.  Every task's allowed cores hold
both cores or neither.  The search and the checker
read of cores and patterns only these: a pattern's ``core_hint`` (the
first core token of its name), its memories, its contention and its
class cost (the class is read from its name's leading tokens), a core's
L3, each memory's capacity, a buffer's allowed patterns and a task's
allowed cores, and each test keeps one of them.  So the swap, applied to
every placement's core and every transfer's pattern, keeps every start,
and maps each schedule the checker accepts onto one it accepts with the
same makespan, each schedule it rejects onto one with the same
violations, and each schedule of the greedy class onto one of the class.
Swaps compose, so the cores any two of which swap part the cores into
classes, found by comparing each core with the first core of each class
found so far, and any relabelling within a class is such a map.  For any
path the search could take, relabelling each class's cores in the order
the path first uses them gives a path that opens the least never-used
core of a class whenever it opens one, so a task is tried on a never-used
core only when that core is the least never-used one of its class.  A pin
cuts a class only into the cores it names and the others.

Interchangeable tasks are placed in id order.  Two tasks are
interchangeable when they agree on runtime, scratch size, allowed
cores, the set of input buffers and the multiset of external releases,
and output by output on size, resolved pattern choices,
observer set, release, availability deadline and labels.  Swapping two
such tasks, and their output buffers position by position, maps the
instance onto itself: every placement rule, every bound and every check
reads only those attributes, and labels are among them because they bind
the symbols of the timing equations.  So the swap maps each schedule to
one with the same makespan and the same violations, and for any order
the search could take some relabelling of a class places its members in
id order.  The frontier therefore offers a member only once the member
before it is placed.  This composes with collapsing never-used cores in a
class: relabelling cores never reorders tasks, and the task order never
names a core, so the two reductions keep one representative of each
combined relabelling.

A scenario run solves one graph under many injections, so what the
search derives from a graph before any solve is a ``SearchPlan``, whose
tables each solve binds onto itself.  Every plan is built by one rule.
It derives each graph-wide table from its own graph, and takes what it
derives from a buffer alone (``_Resolved``: its choices, static options,
and its parts of the anchor, join and memory tables) from a
memo that a run's plans share, keyed by the buffer's allowed names and
size: with the catalog and the topology, that is all the part reads.  So
buffers that agree on both share one, within a graph or across a run,
an added flow's included.  ``SearchPlan.narrowed`` returns the plan
itself when the two graphs' task and buffer records are equal, since no
table reads the deadline or the start-lag cap, and otherwise builds a
plan on its memo.  The root's estimates and its bound read no deadline,
lag cap or option either, so the plan takes them once, and each solve
raises that bound to its own floor.  Each table equals a fresh build's,
so no schedule, verdict or count moves.

The seed skips work that cannot change it.  Each pass builds a schedule
of the greedy class, so its makespan is at least the root's bound; when
that bound passes the deadline, the checker would reject every pass, and
none runs.  The root is still expanded, so the proof and its counts are
as before.  Within a pass, a core is skipped when its finish (or, for
span keys, the later of it and the state's span) exceeds the first term
of the least key found: no pick on it can give a smaller key.  A pass
whose span reaches the incumbent stops, since the span only grows and a
pass replaces only an incumbent it strictly beats.
"""

from __future__ import annotations

from bisect import bisect, insort
from dataclasses import dataclass
from itertools import accumulate, product
from math import prod
from typing import Iterator, NamedTuple

from .graph import Buffer, TaskGraph, TaskInstance, dependencies
from .hardware import HardwareTopology
from .patterns import Pattern, PatternCatalog, transfer_cost
from .schedule import (BUFFER_OVERFLOW, DEADLINE_MISS, LAG_VIOLATION,
                       PATTERN_VIOLATION, Schedule, Transfer, check_schedule,
                       effective_max_start_lag)

PRUNE_BOUND = "BOUND"


@dataclass
class SolveOpts:
    mode: str = "exact"              # "exact" or "heuristic" (seed only)
    budget_nodes: int = 200_000
    max_start_lag: int | None = None  # unset: the cap travels in the graph
    # a makespan no schedule of the instance beats, known from elsewhere
    floor: int = 0


@dataclass
class SolveOutcome:
    status: str                      # optimal | feasible | infeasible | unknown
    schedule: Schedule | None
    makespan: int | None
    witness: str | None
    stats: dict


class Incumbent(NamedTuple):
    """The best schedule a seed portfolio found, and its makespan; both
    ``None`` when it found none."""
    makespan: int | None
    schedule: Schedule | None


class _BudgetExhausted(Exception):
    pass


class _Choice(NamedTuple):
    """One allowed pattern of one buffer, resolved once: its catalog
    position (search order and contention bit) and its transfer cycles."""
    pattern: Pattern
    index: int
    cost: int


class _Move(NamedTuple):
    """A placed transfer: the chosen pattern and the cycles it occupies."""
    choice: _Choice
    start: int
    end: int


class _Timed(NamedTuple):
    """A child timed and checked but not yet built: what ``_bound`` reads
    and ``_commit`` keeps.  ``moves`` holds the task's own output
    transfers; ``claims`` and ``full`` are the child's, as in ``_State``."""
    core: int
    start: int
    fin: int
    span: int
    moves: dict[str, _Move]
    claims: dict[str, int]
    full: frozenset[str]


class _Resolved(NamedTuple):
    """What a plan derives from one buffer's allowed names and size, with
    the catalog and the topology alone; a run's plans share each one."""
    choices: tuple[_Choice, ...]     # catalog-ordered, one per pattern
    common: frozenset                # the anchors every choice passes
    # the mask of the non-pipeline choices' positions, the mask of the
    # positions contending with all of them, and their least cycles
    paying: tuple[int, int, int] | None
    memories: frozenset[str]         # the memories the choices name
    options: tuple                   # per core, in id order: static options


class _Worst(NamedTuple):
    """What settling reads of a (task, core) pair, each taken at its worst
    over every option the core offers the task's outputs."""
    dated: bool                      # some output has an availability deadline
    release: int                     # the latest output release
    cost: int                        # the summed costliest option per output
    extra: int                       # the summed largest anchor extra per output
    reach: int                       # the largest downward rank of an observer
    # tracked memory -> the most the placement adds to its claim total
    adds: tuple[tuple[str, int], ...]


@dataclass
class _State:
    placed: dict[str, tuple[int, int]]
    transfers: dict[str, _Move]
    core_free: dict[int, int]        # the cores in use, each to its last finish
    forced: dict[str, int]
    span: int
    # tracked memory -> the summed size of the claims on it
    claims: dict[str, int]
    full: frozenset[str]             # the memories whose total exceeds capacity
    # (start, end, catalog index) of the non-empty transfers, by start
    busy: tuple[tuple[int, int, int], ...]
    # The frontier and the search bound (see ``_Search._bound``), which
    # only the search brings up to date; a seed state's are stale.
    frontier: tuple[str, ...]        # the tasks to place next, in id order
    est_fin: dict[str, int]          # unplaced task -> earliest finish
    loads: dict                      # anchor -> transfer cycles beyond its base
    floor: int                       # max of path, anchor, root, given floors


def _earliest_fit(busy: tuple[tuple[int, int, int], ...], mask: int, u: int,
                  duration: int, longest: int | None = None) -> int:
    """The earliest start from ``u`` at which ``duration`` cycles overlap
    no interval of ``busy``, sorted by start, whose catalog index is set
    in ``mask``.  When no interval lasts more than ``longest`` cycles, one
    that starts ``longest`` cycles before ``u`` has ended by ``u`` and the
    scan starts past those."""
    if longest is not None:
        busy = busy[bisect(busy, (u - longest,)):]
    for start, end, index in busy:
        if start >= u + duration:
            break
        if end > u and mask >> index & 1:
            u = end
    return u


def _inserted(busy: tuple[tuple[int, int, int], ...],
              interval: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
    i = bisect(busy, interval)
    return busy[:i] + (interval,) + busy[i:]


def _picks(options: list[_Choice], ban_colocate: bool) -> list[_Choice]:
    """The ``options`` the seed tries: the cheapest and the cheapest
    non-pipeline one, or only the latter when co-location is banned."""
    by_cost = sorted(options, key=lambda c: (c.cost, c.index))
    nonpipe = [c for c in by_cost if c.pattern.klass != "pipeline"]
    if ban_colocate and nonpipe:
        return nonpipe[:1]
    return by_cost[:1] + [c for c in nonpipe[:1] if c is not by_cost[0]]


def no_verdict(opts: SolveOpts, exhausted: str) -> str:
    """Why a solve under ``opts`` ended ``unknown``, worded to follow a
    subject such as "baseline ".  In exact mode the node budget ran out,
    which the caller's ``exhausted`` says; heuristic mode runs no search,
    so there the greedy seed found no schedule."""
    if opts.mode == "heuristic":
        return ("greedy seed found no schedule; heuristic mode runs no "
                "search, so only exact mode can reach a verdict")
    return exhausted


def solve_best_case(graph: TaskGraph, topology: HardwareTopology,
                    catalog: PatternCatalog, opts: SolveOpts | None = None,
                    plan: SearchPlan | None = None,
                    incumbent: Incumbent | None = None) -> SolveOutcome:
    """The best-case schedule of ``graph``, or why there is none.  Given
    ``plan``, the plan of a graph on the same topology and catalog, the
    search narrows it to ``graph`` (``SearchPlan.narrowed``): it reuses
    the plan whole when it can and its resolved buffers otherwise.  Given
    ``incumbent``, the search starts from it and runs no seed pass."""
    return _Search(graph, topology, catalog, opts or SolveOpts(),
                   plan).run(incumbent)


def seed_best_case(graph: TaskGraph, topology: HardwareTopology,
                   catalog: PatternCatalog, opts: SolveOpts | None = None,
                   plan: SearchPlan | None = None) -> Incumbent:
    """The seed portfolio of ``solve_best_case`` alone: the incumbent it
    would start its search from."""
    search = _Search(graph, topology, catalog, opts or SolveOpts(), plan)
    root = search._root()
    search._seed(root, root.floor)
    return Incumbent(search.best, search.best_schedule)


class SearchPlan:
    """What the search derives from a graph's task and buffer records, the
    topology and the catalog, before any solve: the resolved choices and
    static options, the ranks, the anchor tables, the propagation plans,
    the frontier gates, the classes of interchangeable cores, and the
    root's estimates and bound.  Nothing here reads the deadline, the
    start-lag cap or a solve's options, and no solve changes a table, so
    one plan serves every solve of a graph, and its memo of resolved
    buffers every plan narrowed from it."""

    def __init__(self, graph: TaskGraph, topology: HardwareTopology,
                 catalog: PatternCatalog,
                 resolutions: dict[tuple, _Resolved] | None = None):
        """The plan of ``graph``.  ``resolutions`` is the memo of the run's
        other plans on this topology and catalog, keyed by what
        ``_resolve`` reads of a buffer (its allowed names and its size);
        a buffer whose key it holds takes the ``_Resolved`` it holds."""
        self.graph = graph
        self.topology = topology
        self.catalog = catalog
        self.resolutions = {} if resolutions is None else resolutions
        self.cores = sorted(c.id for c in topology.cores)
        self.allowed = {t: [c for c in self.cores if task.allowed_cores is None
                            or c in task.allowed_cores]
                        for t, task in graph.tasks.items()}

        self.topo_order, self.preds = dependencies(graph)
        self.observed: dict[str, list[str]] = {t: [] for t in graph.tasks}
        for buf in graph.buffers.values():
            for obs in buf.observers:
                self.observed[obs].append(buf.id)
        self.resolved = {}
        for buf in graph.buffers.values():
            key = buf.allowed_patterns, buf.size
            resolved = self.resolutions.get(key)
            if resolved is None:
                resolved = self.resolutions[key] = self._resolve(buf)
            self.resolved[buf.id] = resolved
        self.choices = {b: r.choices for b, r in self.resolved.items()}
        self.min_dur = {b: min((c.cost for c in cs), default=0)
                        for b, cs in self.choices.items()}
        self.longest = max((c.cost for cs in self.choices.values() for c in cs),
                           default=0)
        self.down = self._ranks()
        self.anchor_base, self.anchor_extra = self._anchor_tables()
        self.plans = {t: self._propagation(t, self._descendants(i))
                      for i, t in enumerate(self.topo_order)}
        self.gates = self._frontier_gates()
        # task -> each task gated on it, with all that task's gates
        self.unlocks: dict[str, list[tuple[str, frozenset[str]]]] = {
            t: [] for t in graph.tasks}
        for t, after in self.gates:
            gate = t, frozenset(after)
            for p in after:
                self.unlocks[p].append(gate)
        self._static_opts = {(b, c): options for b, r in self.resolved.items()
                             for c, options in zip(self.cores, r.options)}
        self.l3_of = {c.id: c.l3 for c in topology.cores}
        self.capacity = {m.id: m.capacity for m in topology.memories}
        self.group_of = self._core_groups()
        self.tracked = self._tracked_memories()
        # catalog index -> the tracked memories a transfer of it claims
        self.claimed = [tuple(m for m in dict.fromkeys((p.defining_memory,
                                                        p.observing_memory))
                              if m in self.tracked) for p in catalog]
        # the root's estimates and its bound, which read no deadline, lag
        # cap or option; each solve raises the bound to its own floor
        self.root_est_fin, path = self._estimate(
            self._propagation(None, self.topo_order), {}, {}, {}, 0)
        total = sum(t.runtime for t in graph.tasks.values())
        load = -(-total // len(self.cores)) if self.cores else 0
        self.root_floor = max(path, load,
                              self._head_body_tail(self.root_est_fin),
                              self._pipeline_or_pay(self.root_est_fin))

    def narrowed(self, graph: TaskGraph) -> SearchPlan:
        """The plan of ``graph``, on this plan's topology and catalog: this
        plan itself when the two graphs' task and buffer records are equal
        (only the deadline or the lag cap differ), else a plan built on
        this one's resolutions."""
        old = self.graph
        if graph is old or (graph.tasks == old.tasks
                            and graph.buffers == old.buffers):
            return self
        return SearchPlan(graph, self.topology, self.catalog, self.resolutions)

    # -- precomputation ----------------------------------------------------

    def _resolve(self, buf: Buffer) -> _Resolved:
        """``buf``'s allowed names as catalog-ordered choices, one per
        pattern (a name the catalog does not hold offers no choice), and
        what the graph-wide tables read of them."""
        catalog = self.catalog
        found = sorted({i for n in buf.allowed_patterns
                        if (i := catalog.position(n)) is not None})
        choices = tuple(_Choice(catalog.patterns[i], i, transfer_cost(
                            catalog.patterns[i].klass, buf.size,
                            self.topology.pattern_costs))
                        for i in found)
        anchors = [catalog.anchors[c.index] for c in choices]
        paying = [c for c in choices if c.pattern.klass != "pipeline"]
        rivals = (1 << len(catalog)) - 1
        for c in paying:
            rivals &= catalog.contention[c.index]
        return _Resolved(
            choices,
            frozenset.intersection(*anchors) if anchors else frozenset(),
            (sum(1 << c.index for c in paying), rivals,
             min(c.cost for c in paying)) if paying else None,
            frozenset(m for c in choices
                      for m in (c.pattern.defining_memory,
                                c.pattern.observing_memory)),
            tuple(self._static_options(choices, core) for core in self.cores))

    def _ranks(self) -> dict[str, int]:
        """task -> its downward rank."""
        down: dict[str, int] = {}
        for t in reversed(self.topo_order):
            task = self.graph.tasks[t]
            tail = 0
            for buf_id in task.outputs:
                observers = self.graph.buffers[buf_id].observers
                tail = max(tail, self.min_dur[buf_id]
                           + max((down[o] for o in observers), default=0))
            down[t] = task.runtime + tail
        return down

    def _anchor_tables(self):
        """Per-anchor serialization floors.  Transfers through one anchor
        never overlap, so their durations sum; a buffer counts toward an
        anchor only when every allowed pattern passes it.  Also returns,
        per (buffer, catalog index), the cycles a transfer adds to each
        floored anchor beyond what the floor already counts, where it adds
        any."""
        base: dict[int, int] = {}
        for buf_id, resolved in self.resolved.items():
            for anchor in resolved.common:
                base[anchor] = base.get(anchor, 0) + self.min_dur[buf_id]
        extra = {}
        for buf_id, resolved in self.resolved.items():
            for c in resolved.choices:
                adds = []
                for anchor in self.catalog.anchors[c.index] & base.keys():
                    counted = (self.min_dur[buf_id] if anchor in resolved.common
                               else 0)
                    if c.cost > counted:
                        adds.append((anchor, c.cost - counted))
                if adds:
                    extra[buf_id, c.index] = tuple(adds)
        return base, extra

    def _join_tables(self) -> dict[str, tuple]:
        """task -> (its input definers, the prefix sums of their runtimes
        and of their least non-pipeline transfer cycles into it, each
        smallest first), for every task the pipeline-or-pay term covers:
        one with two or more input definers whose input buffers each have
        a non-pipeline choice, any two such choices of two of them
        contending.  That test reads, per buffer, the mask of its
        non-pipeline positions and the mask of the positions that contend
        with all of them (``_Resolved.paying``)."""
        nonp = {b: r.paying for b, r in self.resolved.items() if r.paying}
        joins = {}
        for t, task in self.graph.tasks.items():
            inputs = tuple(dict.fromkeys(task.inputs))
            if not all(b in nonp for b in inputs) or any(
                    nonp[a][0] & ~nonp[b][1]
                    for a in inputs for b in inputs if a != b):
                continue
            paid: dict[str, int] = {}
            for buf_id in inputs:
                definer = self.graph.buffers[buf_id].definer
                paid[definer] = paid.get(definer, 0) + nonp[buf_id][2]
            if len(paid) >= 2:
                runtimes = sorted(self.graph.tasks[d].runtime for d in paid)
                joins[t] = (tuple(paid), tuple(accumulate(runtimes, initial=0)),
                            tuple(accumulate(sorted(paid.values()), initial=0)))
        return joins

    def _descendants(self, i: int) -> list[str]:
        """Every task that reads the outputs of the ``i``-th task in
        topological order, directly or not, in topological order."""
        reached, below = {self.topo_order[i]}, []
        for s in self.topo_order[i + 1:]:
            if not self.preds[s].isdisjoint(reached):
                reached.add(s)
                below.append(s)
        return below

    def _propagation(self, placed: str | None, tasks: list[str]) -> tuple:
        """How ``_estimate`` recomputes the earliest finish of ``tasks``,
        in topological order, once ``placed`` is placed (``None`` at the
        root): per task, its latest external release, its runtime, its
        downward rank, the input buffers ``placed`` defines, the (definer,
        least transfer cycles) of those a task in ``tasks`` defines, and
        the (buffer, definer, least transfer cycles) of the rest."""
        planned = set(tasks)
        plan = []
        for t in tasks:
            task = self.graph.tasks[t]
            own, below, other = [], [], []
            for b in task.inputs:
                d, m = self.graph.buffers[b].definer, self.min_dur[b]
                if d == placed:
                    own.append(b)
                elif d in planned:
                    below.append((d, m))
                else:
                    other.append((b, d, m))
            release = max((e.release for e in task.external_inputs), default=0)
            plan.append((t, release, task.runtime, self.down[t],
                         tuple(own), tuple(below), tuple(other)))
        return tuple(plan)

    @staticmethod
    def _estimate(plan: tuple, moves: dict[str, _Move],
                  transfers: dict[str, _Move], est_fin: dict[str, int],
                  floor: int) -> tuple[dict[str, int], int]:
        """The earliest finish of each task of ``plan`` (see
        ``_propagation``), read from ``moves``, from the estimates already
        made, or from ``transfers`` or else ``est_fin``; also ``floor``
        raised by each task's earliest start plus downward rank."""
        overlay: dict[str, int] = {}
        for t, est, to_finish, to_end, own, below, other in plan:
            for buf_id in own:
                end = moves[buf_id].end
                if end > est:
                    est = end
            for definer, min_dur in below:
                ready = overlay[definer] + min_dur
                if ready > est:
                    est = ready
            for buf_id, definer, min_dur in other:
                tr = transfers.get(buf_id)
                ready = tr.end if tr is not None else est_fin[definer] + min_dur
                if ready > est:
                    est = ready
            overlay[t] = est + to_finish
            if est + to_end > floor:
                floor = est + to_end
        return overlay, floor

    def _head_body_tail(self, est_fin: dict[str, int]) -> int:
        """The largest anchor term: per anchor, the least head of the
        buffers its floor counts (the definer's earliest finish, raised to
        the release), plus the floor, plus their least tail (a buffer's
        largest observer downward rank, or 0 without observers)."""
        heads: dict[int, int] = {}
        tails: dict[int, int] = {}
        for buf_id, resolved in self.resolved.items():
            if not resolved.common:
                continue
            buf = self.graph.buffers[buf_id]
            head = max(est_fin[buf.definer], buf.release or 0)
            tail = max((self.down[o] for o in buf.observers), default=0)
            for anchor in resolved.common:
                heads[anchor] = min(heads.get(anchor, head), head)
                tails[anchor] = min(tails.get(anchor, tail), tail)
        return max((head + self.anchor_base[anchor] + tails[anchor]
                    for anchor, head in heads.items()), default=0)

    def _pipeline_or_pay(self, est_fin: dict[str, int]) -> int:
        """The largest join term: per task ``_join_tables`` covers, the
        least over k of its input definers sharing its core of the later
        of two readies, the k shortest definers run back to back and the
        other definers' cheapest transfers run back to back, plus its
        downward rank."""
        term = 0
        for t, (definers, runs, costs) in self._join_tables().items():
            start = min(est_fin[d] - self.graph.tasks[d].runtime
                        for d in definers)
            fin = min(est_fin[d] for d in definers)
            n = len(definers)
            ready = min(max(start + runs[k] if k else 0,
                            fin + costs[n - k] if k < n else 0)
                        for k in range(n + 1))
            term = max(term, ready + self.down[t])
        return term

    def _core_groups(self) -> dict[int, int]:
        """core id -> the least core of its class, for every class of two or
        more interchangeable cores: cores whose swap maps the instance onto
        itself, by the tests the module docstring lists."""
        allowed = {frozenset(c.index for c in r.choices)
                   for r in self.resolved.values()}
        pins = {t.allowed_cores for t in self.graph.tasks.values()
                if t.allowed_cores is not None}

        def swaps(a: int, b: int) -> bool:
            ca, cb = self.topology.core(a), self.topology.core(b)
            if (ca.l3 != cb.l3
                    or self.capacity.get(ca.l2) != self.capacity.get(cb.l2)
                    or any((a in s) != (b in s) for s in pins)):
                return False
            image = self.catalog.swapped(a, b, ca.l2, cb.l2)
            return image is not None and all({image[i] for i in s} == s
                                             for s in allowed)

        classes: list[list[int]] = []
        for core in self.cores:
            for cls in classes:
                if swaps(cls[0], core):
                    cls.append(core)
                    break
            else:
                classes.append([core])
        return {core: cls[0] for cls in classes if len(cls) > 1 for core in cls}

    def _signature(self, task: TaskInstance) -> tuple:
        """What a swap of ``task`` with another task, and of their output
        buffers position by position, must preserve; tasks with equal
        signatures are interchangeable.  Stream names of external inputs
        are left out: only checker messages read them."""
        outputs = tuple((b.size, tuple(c.index for c in self.choices[b.id]),
                         frozenset(b.observers), b.release, b.avail_deadline,
                         b.labels)
                        for b in map(self.graph.buffers.__getitem__, task.outputs))
        return (task.runtime, task.internalsize, task.allowed_cores,
                frozenset(task.inputs),
                tuple(sorted(e.release for e in task.external_inputs)),
                outputs)

    def _frontier_gates(self) -> list[tuple[str, tuple[str, ...]]]:
        """Every task in id order, with the tasks that must be placed before
        it may enter the frontier: its predecessors and, for all but the
        first member of a class of interchangeable tasks, the member before
        it."""
        last: dict[tuple, str] = {}
        gates = []
        for t in sorted(self.graph.tasks):
            after = set(self.preds[t])
            key = self._signature(self.graph.tasks[t])
            if key in last:
                after.add(last[key])
            last[key] = t
            gates.append((t, tuple(after)))
        return gates

    def _tracked_memories(self) -> frozenset[str]:
        """Memories that may overflow: a buffer can claim each memory its
        choices name at most once, and a task's scratch space any core's
        L3, so a memory whose summed demand fits its capacity never fills."""
        demand: dict[str, int] = {}
        for buf_id, resolved in self.resolved.items():
            size = max(self.graph.buffers[buf_id].size, 0)
            for mem in resolved.memories:
                demand[mem] = demand.get(mem, 0) + size
        scratch = sum(t.internalsize for t in self.graph.tasks.values()
                      if t.internalsize > 0)
        for l3 in set(self.l3_of.values()):
            demand[l3] = demand.get(l3, 0) + scratch
        return frozenset(m for m, d in demand.items()
                         if m not in self.capacity or d > self.capacity[m])

    def _static_options(self, choices: tuple[_Choice, ...], core: int
                        ) -> tuple[list[_Choice], list[_Choice]]:
        kept: dict[tuple, _Choice] = {}    # the first of each behaviour
        for c in choices:
            if c.pattern.core_hint in (None, core):
                kept.setdefault((c.cost, self.catalog.contention[c.index],
                                 c.pattern.defining_memory,
                                 c.pattern.observing_memory), c)
        compat = list(kept.values())
        return compat, [c for c in compat if c.pattern.klass != "pipeline"]


class _Search:
    def __init__(self, graph: TaskGraph, topology: HardwareTopology,
                 catalog: PatternCatalog, opts: SolveOpts,
                 plan: SearchPlan | None = None):
        if plan is None:
            plan = SearchPlan(graph, topology, catalog)
        elif plan.topology is not topology or plan.catalog is not catalog:
            raise ValueError("a search plan serves only the topology and "
                             "catalog it was built on")
        else:
            plan = plan.narrowed(graph)
        # the plan's tables sit on the search itself, so that the hot paths
        # load each with one attribute lookup
        vars(self).update(vars(plan))
        self.graph = graph
        self.opts = opts
        self.max_lag = effective_max_start_lag(graph, opts.max_start_lag)

        self.best: int | None = None
        self.best_schedule: Schedule | None = None
        self.nodes = 0
        self.leaves = 0
        self.pruned: dict[str, int] = {}
        # made on first use: what settling reads of each (task, core) pair
        self._worst: dict[tuple[str, int], _Worst] = {}

    # -- pattern options ---------------------------------------------------

    def _options(self, buf_id: str, core: int, state: _State) -> list[_Choice]:
        """Catalog-ordered choices for ``buf_id`` defined on ``core``; the
        pipeline ones only if no observer is barred from ``core`` or forced
        elsewhere.  The lists are cached and shared: do not mutate them."""
        every, nonp = self._static_opts[buf_id, core]
        if len(every) == len(nonp):
            return nonp
        for obs in self.graph.buffers[buf_id].observers:
            allowed = self.graph.tasks[obs].allowed_cores
            if ((allowed is not None and core not in allowed)
                    or state.forced.get(obs, core) != core):
                return nonp
        return every

    # -- placement ---------------------------------------------------------

    def _earliest(self, state: _State, task_id: str) -> int:
        """The earliest start of ``task_id`` on any core after ``state``:
        when its last input arrives or is released."""
        task = self.graph.tasks[task_id]
        transfers = state.transfers
        ready = 0
        for buf_id in task.inputs:
            end = transfers[buf_id].end
            if end > ready:
                ready = end
        for ext in task.external_inputs:
            if ext.release > ready:
                ready = ext.release
        return ready

    def _time(self, state: _State, task_id: str, core: int,
              combo: tuple[_Choice, ...], earliest: int, start: int
              ) -> tuple[_Timed | None, str | None]:
        """Time placing ``task_id`` on ``core`` with ``combo`` after
        ``state`` and check it: the task's finish from its ``earliest``
        start and its ``start`` there, its output transfers, and the
        occupancy of the tracked memories.  Returns the timed child, or
        ``None`` and the reason it breaks a constraint."""
        task = self.graph.tasks[task_id]
        if self.max_lag is not None and start > earliest + self.max_lag:
            return None, LAG_VIOLATION
        fin = start + task.runtime

        buffers = self.graph.buffers
        moves: dict[str, _Move] = {}
        busy = state.busy
        span = state.span if state.span > fin else fin
        fitted = len(task.outputs) > 1   # later outputs fit around earlier ones
        for buf_id, choice in zip(task.outputs, combo):
            buf = buffers[buf_id]
            duration = choice.cost
            u = fin
            if buf.release is not None and buf.release > u:
                u = buf.release
            if duration > 0:
                u = _earliest_fit(busy, self.catalog.contention[choice.index],
                                  u, duration, self.longest)
            end = u + duration
            if buf.avail_deadline is not None and end > buf.avail_deadline:
                return None, DEADLINE_MISS
            moves[buf_id] = _Move(choice, u, end)
            if fitted and duration > 0:
                busy = _inserted(busy, (u, end, choice.index))
            if end > span:
                span = end

        claims, full = state.claims, state.full
        if self.tracked:
            claims, full = self._occupy(state, task, core, start, moves)
            if claims is None:
                return None, BUFFER_OVERFLOW
        return _Timed(core, start, fin, span, moves, claims, full), None

    def _commit(self, state: _State, task_id: str, timed: _Timed,
                carried: tuple[dict, dict, int] | None = None) -> _State:
        """The child state of ``state`` that ``timed`` describes.  Its bound
        state is ``carried``, as ``_bound`` returned it, and its frontier
        gains the tasks that placing ``task_id`` unlocks; without
        ``carried`` both are the parent's, and then stale."""
        placed = dict(state.placed)
        placed[task_id] = (timed.core, timed.start)
        transfers = {**state.transfers, **timed.moves}
        busy = state.busy
        for move in timed.moves.values():
            if move.choice.cost > 0:
                busy = _inserted(busy, (move.start, move.end, move.choice.index))
        core_free = dict(state.core_free)
        core_free[timed.core] = timed.fin
        forced = state.forced
        for buf_id, move in timed.moves.items():
            if move.choice.pattern.klass == "pipeline":
                if forced is state.forced:
                    forced = dict(state.forced)
                for obs in self.graph.buffers[buf_id].observers:
                    forced[obs] = timed.core
        frontier, est_fin = state.frontier, state.est_fin
        loads, floor = state.loads, state.floor
        if carried is not None:
            overlay, loads, floor = carried
            est_fin = {**est_fin, **overlay}
            del est_fin[task_id]
            frontier = list(frontier)
            frontier.remove(task_id)
            for t, after in self.unlocks[task_id]:
                if placed.keys() >= after:
                    insort(frontier, t)
            frontier = tuple(frontier)
        return _State(placed=placed, transfers=transfers, core_free=core_free,
                      forced=forced, span=timed.span, claims=timed.claims,
                      full=timed.full, busy=busy, frontier=frontier,
                      est_fin=est_fin, loads=loads, floor=floor)

    def _occupy(self, state: _State, task: TaskInstance, core: int,
                start: int, moves: dict[str, _Move]
                ) -> tuple[dict[str, int] | None, frozenset[str]]:
        """The tracked memories' claim totals once ``task`` is placed on
        ``core`` at ``start`` with ``moves``, or ``None`` when that
        overflows a memory, and the memories whose total exceeds their
        capacity.  The placement adds its output buffers' claims and its
        scratch claim and extends its input buffers' claims; of the
        memories it touches, those over capacity are swept."""
        totals, full = state.claims.copy(), state.full
        touched = []
        for b, move in moves.items():
            size = max(self.graph.buffers[b].size, 0)
            for mem in self.claimed[move.choice.index]:
                totals[mem] = totals.get(mem, 0) + size
                touched.append(mem)
        mem = self.l3_of[core]
        if task.internalsize > 0 and mem in self.tracked:
            totals[mem] = totals.get(mem, 0) + task.internalsize
            touched.append(mem)
        for mem in touched:
            if totals[mem] > self.capacity[mem] and mem not in full:
                full |= {mem}
        if full:
            touched += (state.transfers[b].choice.pattern.observing_memory
                        for b in self.observed[task.id])
            placed = {**state.placed, task.id: (core, start)}
            transfers = {**state.transfers, **moves}
            if any(self._overflows(mem, placed, transfers)
                   for mem in sorted(full.intersection(touched))):
                return None, full
        return totals, full

    def _overflows(self, mem: str, placed: dict[str, tuple[int, int]],
                   transfers: dict[str, _Move]) -> bool:
        """Occupancy sweep of ``mem`` in a state that places ``placed``
        with ``transfers``.  A buffer claims its defining memory from its
        definer's finish and its observing memory from its transfer's
        start, until the transfer ends and, in the observing memory, its
        placed observers finish; a task's scratch claims its core's L3
        while it runs."""
        tasks = self.graph.tasks
        claims = [(start, start + tasks[t].runtime, tasks[t].internalsize)
                  for t, (core, start) in placed.items()
                  if tasks[t].internalsize > 0 and self.l3_of[core] == mem]
        for buf_id, move in transfers.items():
            pattern = move.choice.pattern
            if mem != pattern.defining_memory and mem != pattern.observing_memory:
                continue
            buf = self.graph.buffers[buf_id]
            end = move.end
            if mem == pattern.observing_memory:
                for obs in buf.observers:
                    if obs in placed:
                        end = max(end, placed[obs][1] + tasks[obs].runtime)
            start = move.start
            if mem == pattern.defining_memory:
                start = placed[buf.definer][1] + tasks[buf.definer].runtime
            claims.append((start, end, buf.size))
        events: list[tuple[int, int, int]] = []
        for start, end, size in claims:
            if end > start:
                events.append((start, 1, size))
                events.append((end, 0, -size))
        events.sort()
        level = 0
        for _, _, delta in events:
            level += delta
            if level > self.capacity[mem]:
                return True
        return False

    # -- bounds ------------------------------------------------------------

    def _bound(self, state: _State, task_id: str, timed: _Timed
               ) -> tuple[int, tuple[dict, dict, int]]:
        """Bound every completion of the child that ``timed`` makes by
        placing ``task_id`` after ``state``, whose bound is up to date.
        Also returns the child's bound state for ``_commit``: the estimates
        of ``task_id``'s descendants and the loads of the anchors its
        transfers touch, brought up to date."""
        overlay, floor = SearchPlan._estimate(self.plans[task_id], timed.moves,
                                              state.transfers, state.est_fin,
                                              state.floor)
        loads = state.loads
        for buf_id, move in timed.moves.items():
            extra = self.anchor_extra.get((buf_id, move.choice.index), ())
            if extra and loads is state.loads:
                loads = dict(loads)
            for anchor, cycles in extra:
                loads[anchor] = loads.get(anchor, 0) + cycles
                floor = max(floor, self.anchor_base[anchor] + loads[anchor])
        return max(timed.span, floor), (overlay, loads, floor)

    # -- branching ---------------------------------------------------------

    def _cores(self, state: _State, task_id: str
               ) -> Iterator[tuple[int | None, list[list[_Choice]]]]:
        """Each candidate core for ``task_id`` in search order, with the
        options of each of its output buffers there; a child is a core and
        one option per buffer.  Yields ``(None, [])`` once if no core is a
        candidate, and in place of each candidate core where some output
        buffer has no option."""
        cores = self.allowed[task_id]
        forced = state.forced.get(task_id)
        if forced is not None:
            cores = [forced] if forced in cores else []
        if not cores:
            yield None, []
        outputs = self.graph.tasks[task_id].outputs
        groups: set[int] = set()
        for core in cores:
            # never-used cores of one class are interchangeable,
            # so keep the first (least) of them
            group = self.group_of.get(core)
            if core not in state.core_free and group is not None:
                if group in groups:
                    continue
                groups.add(group)
            option_lists = [self._options(buf_id, core, state) for buf_id in outputs]
            if all(option_lists):
                yield core, option_lists
            else:
                yield None, []

    def _cap(self) -> int:
        if self.best is None:
            return self.graph.deadline
        return min(self.graph.deadline, self.best - 1)

    def _expand(self, state: _State) -> None:
        # budget counts every attempted placement, not just entered states,
        # so runtime scales with the cap even in very wide trees
        budget = self.opts.budget_nodes
        self.nodes += 1
        if self.nodes > budget:
            raise _BudgetExhausted()
        if len(state.placed) == len(self.graph.tasks):
            self._leaf(state)
            return
        pruned = self.pruned
        deadline = self.graph.deadline
        core_free = state.core_free
        cap = self._cap()
        for task_id in state.frontier:
            earliest = self._earliest(state, task_id)
            for core, option_lists in self._cores(state, task_id):
                if core is None:
                    pruned[PATTERN_VIOLATION] = pruned.get(PATTERN_VIOLATION, 0) + 1
                    continue
                start = core_free.get(core, 0)
                if start < earliest:
                    start = earliest
                settled = self._settle_core(state, task_id, core, earliest,
                                            start, cap)
                if settled is not None:
                    self._prune_all(settled, prod(map(len, option_lists)))
                    continue
                for combo in product(*option_lists):
                    self.nodes += 1
                    if self.nodes > budget:
                        raise _BudgetExhausted()
                    timed, reason = self._time(state, task_id, core, combo,
                                               earliest, start)
                    if timed is not None:
                        lb, carried = self._bound(state, task_id, timed)
                        if lb <= cap:
                            self._expand(self._commit(state, task_id, timed,
                                                      carried))
                            cap = self._cap()
                            continue
                        reason = DEADLINE_MISS if lb > deadline else PRUNE_BOUND
                    pruned[reason] = pruned.get(reason, 0) + 1

    def _prune_all(self, reason: str, count: int) -> None:
        """Count ``count`` children as nodes, each pruned for ``reason``,
        as many as the budget allows before it runs out."""
        budget = self.opts.budget_nodes
        within = min(count, budget - self.nodes)
        self.nodes += within
        self.pruned[reason] = self.pruned.get(reason, 0) + within
        if within < count:
            self.nodes += 1
            raise _BudgetExhausted()

    # -- settling ------------------------------------------------------------

    def _settle_core(self, state: _State, task_id: str, core: int,
                     earliest: int, start: int, cap: int) -> str | None:
        """The label every child placing ``task_id`` on ``core`` after
        ``state`` would be pruned with, if one label is certain before
        any is timed, else ``None``: the start breaks the lag cap, or the
        start plus the task's downward rank, or the state's floor, exceeds
        ``cap``, and no output has an availability deadline and no tracked
        memory can overflow, since a fit or the occupancy check would
        come first; then DEADLINE_MISS when that least bound passes the
        deadline, and BOUND when the highest bound cannot."""
        if self.max_lag is not None and start > earliest + self.max_lag:
            return LAG_VIOLATION
        lower = max(start + self.down[task_id], state.floor)
        if lower <= cap:
            return None
        worst = self._worst_case(task_id, core)
        if worst.dated or state.full:
            return None
        claims, capacity = state.claims, self.capacity
        for mem, adds in worst.adds:
            if claims.get(mem, 0) + adds > capacity[mem]:
                return None
        deadline = self.graph.deadline
        if lower > deadline:
            return DEADLINE_MISS
        fin = start + self.graph.tasks[task_id].runtime
        upper = max(fin, state.span, worst.release) + worst.cost + worst.reach
        if max(upper, state.floor + worst.extra) <= deadline:
            return PRUNE_BOUND
        return None

    def _worst_case(self, task_id: str, core: int) -> _Worst:
        """The ``_Worst`` of placing ``task_id`` on ``core``, made on first
        use, so that a solve that settles nothing makes none."""
        worst = self._worst.get((task_id, core))
        if worst is not None:
            return worst
        task = self.graph.tasks[task_id]
        dated, release, cost, extra, reach = False, 0, 0, 0, 0
        adds = {}
        for buf_id in task.outputs:
            buf = self.graph.buffers[buf_id]
            options = self._static_opts[buf_id, core][0]
            dated = dated or buf.avail_deadline is not None
            release = max(release, buf.release or 0)
            cost += max(c.cost for c in options)
            extra += max((cycles for c in options for _, cycles
                          in self.anchor_extra.get((buf_id, c.index), ())),
                         default=0)
            for obs in buf.observers:
                reach = max(reach, self.down[obs])
            size = max(buf.size, 0)
            for mem in {m for c in options for m in self.claimed[c.index]}:
                adds[mem] = adds.get(mem, 0) + size
        mem = self.l3_of[core]
        if task.internalsize > 0 and mem in self.tracked:
            adds[mem] = adds.get(mem, 0) + task.internalsize
        worst = self._worst[task_id, core] = _Worst(
            dated, release, cost, extra, reach, tuple(adds.items()))
        return worst

    def _leaf(self, state: _State) -> None:
        self.leaves += 1
        schedule = self._schedule(state)
        violations = check_schedule(schedule, self.graph, self.topology,
                                    self.catalog, max_start_lag=self.max_lag)
        if violations:
            kind = violations[0].kind
            self.pruned[kind] = self.pruned.get(kind, 0) + 1
            return
        if self.best is None or state.span < self.best:
            self.best = state.span
            self.best_schedule = schedule

    # -- seeding -----------------------------------------------------------

    def _seed(self, root: _State, bound: int) -> None:
        """List scheduling by upward rank, run under a small portfolio of
        greedy policies; a pass only becomes the incumbent if the independent
        checker accepts it and it beats anything found so far.

        finish-time keys spread load across cores, span keys keep chains
        local; allowing or banning zero-cost co-location patterns in a pass
        trades transfer cost against core parallelism.  Once the incumbent
        meets ``bound``, the root's lower bound, no pass runs: nothing beats
        the bound, and a pass replaces only an incumbent it strictly beats.
        Nor does any pass run when ``bound`` passes the deadline, since the
        checker would reject every schedule a pass could build."""
        if bound > self.graph.deadline:
            return
        for by_finish in (True, False):
            for ban_colocate in (False, True):
                if self.best is None or self.best > bound:
                    self._seed_pass(root, by_finish, ban_colocate)

    def _seed_pass(self, root: _State, by_finish: bool,
                   ban_colocate: bool) -> None:
        """One greedy pass: each task in turn goes to the core and picks
        whose key (finish or span first) is least.  A core whose finish,
        or for span keys the later of it and the span, passes the least
        key's first term cannot win, and is skipped; a pass whose span
        reaches the incumbent can no longer replace it, and stops."""
        order = sorted(self.graph.tasks, key=lambda t: (-self.down[t], t))
        state = root
        for task_id in order:
            if any(p not in state.placed for p in self.preds[task_id]):
                return
            earliest = self._earliest(state, task_id)
            runtime = self.graph.tasks[task_id].runtime
            best = None
            best_key = None
            for core, option_lists in self._cores(state, task_id):
                if core is None:
                    continue
                start = max(state.core_free.get(core, 0), earliest)
                if best_key is not None and max(
                        start + runtime,
                        0 if by_finish else state.span) > best_key[0]:
                    continue
                for combo in product(*[_picks(options, ban_colocate)
                                       for options in option_lists]):
                    timed, _ = self._time(state, task_id, core, combo,
                                          earliest, start)
                    if timed is None:
                        continue
                    rank = timed.fin if by_finish else timed.span
                    key = (rank, timed.span, core, tuple(c.index for c in combo))
                    if best_key is None or key < best_key:
                        best_key = key
                        best = timed
            if best is None:
                return
            state = self._commit(state, task_id, best)
            if self.best is not None and state.span >= self.best:
                return
        schedule = self._schedule(state)
        if not check_schedule(schedule, self.graph, self.topology, self.catalog,
                              max_start_lag=self.max_lag):
            self.best = state.span
            self.best_schedule = schedule

    def _schedule(self, state: _State) -> Schedule:
        return Schedule(assignments=dict(state.placed), transfers={
            buf_id: Transfer(tr.choice.pattern.name, tr.start, tr.choice.cost)
            for buf_id, tr in state.transfers.items()})

    def _root(self) -> _State:
        # no state changes its estimates in place, so the root shares the
        # plan's
        return _State(placed={}, transfers={}, core_free={}, forced={},
                      span=0, claims={}, full=frozenset(), busy=(),
                      frontier=tuple(t for t, after in self.gates if not after),
                      est_fin=self.root_est_fin, loads={},
                      floor=max(self.root_floor, self.opts.floor))

    # -- driver ------------------------------------------------------------

    def run(self, incumbent: Incumbent | None = None) -> SolveOutcome:
        root = self._root()
        if incumbent is None:
            self._seed(root, root.floor)
        else:
            self.best, self.best_schedule = incumbent
        seed_span = self.best

        complete = False
        if self.opts.mode == "exact":
            try:
                # a seed at the root's bound is optimal: nothing beats it
                if self.best is None or self.best > root.floor:
                    self._expand(root)
                complete = True
            except _BudgetExhausted:
                pass
        elif self.opts.mode != "heuristic":
            raise ValueError(f"unknown solve mode {self.opts.mode!r}")

        stats = {
            "nodes": self.nodes,
            "leaves": self.leaves,
            "pruned": dict(sorted(self.pruned.items())),
            "seed_makespan": seed_span,
            "complete": complete,
            "lower_bound": root.floor,
        }
        if self.best is not None:
            status = "optimal" if complete else "feasible"
            return SolveOutcome(status=status, schedule=self.best_schedule,
                                makespan=self.best, witness=None, stats=stats)
        if complete:
            witness = self._witness()
            return SolveOutcome(status="infeasible", schedule=None,
                                makespan=None, witness=witness, stats=stats)
        return SolveOutcome(status="unknown", schedule=None, makespan=None,
                            witness=None, stats=stats)

    def _witness(self) -> str:
        reasons = {k: v for k, v in self.pruned.items() if k != PRUNE_BOUND}
        if not reasons:
            return DEADLINE_MISS
        return max(sorted(reasons), key=lambda k: reasons[k])
