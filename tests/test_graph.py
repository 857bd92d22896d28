"""Task graph records: the dependency walk and the graph.json writer."""

from __future__ import annotations

from ddtwin.graph import (Buffer, ExternalInput, TaskGraph, TaskInstance,
                          dependencies, graph_to_json)
from ddtwin.manifests import TimingEquationDoc


def edges(*pairs: tuple[str, str]) -> dict[str, Buffer]:
    """One buffer per (definer, observer) pair."""
    return {f"{d}>{o}": Buffer(f"{d}>{o}", 1, d, observers=(o,))
            for d, o in pairs}


def tasks(*ids: str) -> dict[str, TaskInstance]:
    return {t: TaskInstance(t, "f", 1, 0) for t in ids}


def test_dependencies_take_the_least_ready_id_first():
    # c and d are ready at once; c goes first, and b, ready only after c,
    # goes before d
    graph = TaskGraph(tasks("d", "c", "b", "a"), edges(("d", "a"), ("c", "b")), 100)
    order, preds = dependencies(graph)
    assert order == ["c", "b", "d", "a"]
    assert preds == {"a": {"d"}, "b": {"c"}, "c": set(), "d": set()}


def test_dependencies_leave_out_a_cycle_and_what_it_feeds():
    graph = TaskGraph(tasks("a", "b", "c", "d", "e"),
                      edges(("a", "b"), ("b", "a"), ("b", "c"), ("d", "e")), 100)
    order, preds = dependencies(graph)
    assert order == ["d", "e"]
    assert preds == {"a": {"b"}, "b": {"a"}, "c": {"b"}, "d": set(), "e": {"d"}}


def test_graph_json_is_pinned():
    graph = TaskGraph(
        tasks={"src": TaskInstance("src", "fsrc", 10, 4, outputs=("s",),
                                   allowed_cores=frozenset({3, 1}),
                                   external_inputs=(ExternalInput("pin[0]", 5),)),
               "dst": TaskInstance("dst", "fdst", 20, 0, inputs=("s",))},
        buffers={"s": Buffer("s", 64, "src", observers=("dst",),
                             allowed_patterns=("pipeline.c0",), labels=("lat",),
                             avail_deadline=300)},
        deadline=1000,
        bound_constraints=[TimingEquationDoc("e2e", "lat <= 900", {"lat": "lat"})],
        symbol_values={"b": 2, "a": 1})
    assert graph_to_json(graph) == '''\
{
  "kind": "task_graph",
  "deadline": 1000,
  "max_start_lag": null,
  "tasks": [
    {
      "id": "src",
      "function": "fsrc",
      "runtime": 10,
      "internalsize": 4,
      "inputs": [],
      "outputs": [
        "s"
      ],
      "allowed_cores": [
        1,
        3
      ],
      "external_inputs": [
        {
          "stream": "pin[0]",
          "release": 5
        }
      ]
    },
    {
      "id": "dst",
      "function": "fdst",
      "runtime": 20,
      "internalsize": 0,
      "inputs": [
        "s"
      ],
      "outputs": [],
      "allowed_cores": null,
      "external_inputs": []
    }
  ],
  "buffers": [
    {
      "id": "s",
      "size": 64,
      "definer": "src",
      "observers": [
        "dst"
      ],
      "allowed_patterns": [
        "pipeline.c0"
      ],
      "labels": [
        "lat"
      ],
      "release": null,
      "avail_deadline": 300
    }
  ],
  "bound_constraints": [
    {
      "name": "e2e",
      "equation": "lat <= 900",
      "bindings": {
        "lat": "lat"
      },
      "unit": "clock"
    }
  ],
  "symbol_values": {
    "a": 1,
    "b": 2
  }
}
'''
