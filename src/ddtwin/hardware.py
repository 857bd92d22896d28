"""Hardware topology and deployment configuration.

Both are single-document YAML files.  The topology names memories and
cores and optionally overrides the per-class transfer cost table; the
deployment pins symbolic constants, the slot budget, the entry flow, and
scheduler-wide limits such as the maximum start lag.

Both are read through ``documents``: every integer field (a capacity, a
core id, a cost, a symbol value, the slot budget, the start lag) must be
written as an integer, and a string, float or boolean there is an error,
never truncated or coerced.  A memory's capacity is required and must
not be negative.  A key that a mapping does not take is refused by name.
Every diagnostic is collected before any is raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic, DiagnosticError, fail
from .documents import integer, known_keys, load_document, section, typed

MEMORY_LEVELS = ("L2", "L3", "DDR")

# base cycles and bytes/cycle per pattern class; pipeline stays inside a
# core's cache hierarchy so it has no size term at all
DEFAULT_COST_TABLE: dict[str, tuple[int, int | None]] = {
    "pipeline": (0, None),
    "L2toL2": (200, 64),
    "big_delay": (1000, 16),
}


@dataclass(frozen=True)
class Memory:
    id: str
    level: str
    capacity: int


@dataclass(frozen=True)
class Core:
    id: int
    l2: str
    l3: str


@dataclass
class HardwareTopology:
    memories: list[Memory]
    cores: list[Core]
    pattern_costs: dict[str, tuple[int, int | None]] = field(
        default_factory=lambda: dict(DEFAULT_COST_TABLE))

    def __post_init__(self) -> None:
        self._by_id = {m.id: m for m in self.memories}
        self._core_by_id = {c.id: c for c in self.cores}

    def memory(self, mem_id: str) -> Memory:
        return self._by_id[mem_id]

    def memories_of_level(self, level: str) -> list[Memory]:
        return [m for m in self.memories if m.level == level]

    def core(self, core_id: int) -> Core:
        try:
            return self._core_by_id[core_id]
        except KeyError:
            raise KeyError(f"no core {core_id}") from None


@dataclass
class DeploymentConfig:
    entry_flow: str
    symbols: dict[str, int] = field(default_factory=dict)
    slot_budget: int = 1_000_000
    max_start_lag: int | None = None
    metadata_files: list[str] = field(default_factory=list)
    equation_values: dict[str, int] = field(default_factory=dict)


def _collect(diags: list, read, *args):
    """``read(*args)``, or None with its diagnostics added to ``diags``."""
    try:
        return read(*args)
    except DiagnosticError as exc:
        diags.extend(exc.diagnostics)
        return None


def _get(entry: dict, key: str, what: str, diags: list, kind: type = int,
         default=None):
    """``entry[key]`` as an integer (as text if ``kind`` is str), or
    ``default`` when the key is absent.  A missing required key or a
    non-integer is reported in ``diags`` and gives None."""
    if key not in entry:
        if default is None:
            diags.append(Diagnostic(1, 1, f"{what} is missing {key!r}"))
        return default
    if kind is str:
        return str(entry[key])
    return _collect(diags, integer, entry[key], f"{what}: {key!r}")


def _section(raw: dict, key: str, kind: type, what: str, diags: list):
    """``raw[key]`` if it is a ``kind`` (list or dict), else an empty one;
    a value of another shape is reported in ``diags``."""
    return _collect(diags, section, raw, key, kind, f"{what} {key}") or kind()


def parse_topology(text: str) -> HardwareTopology:
    raw = typed(load_document(text, "topology"), dict, "topology")
    diags = []
    _collect(diags, known_keys, raw, ("memories", "cores", "pattern_costs"),
             "topology")
    memories: list[Memory] = []
    # a core may name a memory refused for another field: that fault is
    # reported once, at the memory
    mem_ids: set[str] = set()
    for i, m in enumerate(_section(raw, "memories", list, "topology", diags)):
        what = f"memory {i + 1}"
        if _collect(diags, typed, m, dict, what) is None:
            continue
        _collect(diags, known_keys, m, ("id", "level", "capacity"), what)
        if "id" in m:
            mem_ids.add(str(m["id"]))
        level = m.get("level")
        if level not in MEMORY_LEVELS:
            diags.append(Diagnostic(1, 1, f"memory {m.get('id')!r} has unknown level {level!r}"))
            continue
        n = len(diags)
        mem = Memory(id=_get(m, "id", what, diags, str), level=level,
                     capacity=_get(m, "capacity", what, diags))
        if len(diags) == n and mem.capacity < 0:
            diags.append(Diagnostic(1, 1, f"{what}: 'capacity' must be "
                                          f"non-negative, got {mem.capacity}"))
        if len(diags) == n:
            memories.append(mem)
    cores: list[Core] = []
    for i, c in enumerate(_section(raw, "cores", list, "topology", diags)):
        what = f"core {i + 1}"
        if _collect(diags, typed, c, dict, what) is None:
            continue
        _collect(diags, known_keys, c, ("id", "l2", "l3"), what)
        n = len(diags)
        core = Core(id=_get(c, "id", what, diags),
                    l2=_get(c, "l2", what, diags, str),
                    l3=_get(c, "l3", what, diags, str))
        if len(diags) > n:
            continue
        for ref in (core.l2, core.l3):
            if ref not in mem_ids:
                diags.append(Diagnostic(1, 1, f"core {core.id} references unknown memory {ref!r}"))
        cores.append(core)
    if len({c.id for c in cores}) != len(cores):
        diags.append(Diagnostic(1, 1, "duplicate core ids in topology"))

    costs = dict(DEFAULT_COST_TABLE)
    for klass, entry in _section(raw, "pattern_costs", dict, "topology", diags).items():
        what = f"pattern_costs.{klass}"
        if klass not in DEFAULT_COST_TABLE:
            diags.append(Diagnostic(1, 1, f"pattern_costs names unknown class {klass!r}"))
            continue
        if _collect(diags, typed, entry, dict, what) is None:
            continue
        _collect(diags, known_keys, entry, ("base", "bandwidth"), what)
        costs[klass] = (_get(entry, "base", what, diags, default=0),
                        _get(entry, "bandwidth", what, diags)
                        if entry.get("bandwidth") is not None else None)
    if diags:
        raise DiagnosticError(diags)
    return HardwareTopology(memories=memories, cores=cores,
                            pattern_costs=costs)


def parse_deployment(text: str) -> DeploymentConfig:
    raw = typed(load_document(text, "deployment"), dict, "deployment")
    if "entry_flow" not in raw:
        raise fail(1, 1, "deployment must name an entry_flow")
    diags: list = []
    _collect(diags, known_keys, raw, (
        "entry_flow", "symbols", "slot_budget", "max_start_lag",
        "metadata_files", "equation_values"), "deployment")

    def integers(key: str) -> dict[str, int]:
        values = _section(raw, key, dict, "deployment", diags)
        return {str(k): _get(values, k, f"deployment {key}", diags) for k in values}

    lag = raw.get("max_start_lag")
    config = DeploymentConfig(
        entry_flow=str(raw["entry_flow"]),
        symbols=integers("symbols"),
        slot_budget=_get(raw, "slot_budget", "deployment", diags, default=1_000_000),
        max_start_lag=None if lag is None else _get(raw, "max_start_lag", "deployment", diags),
        metadata_files=[str(p) for p in
                        _section(raw, "metadata_files", list, "deployment", diags)],
        equation_values=integers("equation_values"),
    )
    if diags:
        raise DiagnosticError(diags)
    return config
