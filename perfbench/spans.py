"""Spans around the layer entry points of codedbft, from outside the program.

The tracer replaces a function where its caller looks it up (a module
attribute such as `codedbft.sim.encode`, or a method on a class) with a
wrapper that records one span per call, and puts every original back
on `restore()`. Only cross-layer calls are wrapped: the engine's calls
into consensus, quorum and the codec, consensus's calls into the codec,
and the benchmark's own calls into the engine. A call that stays inside
one module (say `run_diagnosis` re-deriving a flag) is not wrapped, so
its time stays in the caller's self time. `gf256` works per byte and
`TrustGraph` per query; neither is wrapped, and their time lands in the
self time of whoever called them.

Spans live in flat arrays, so a traced sweep of hundreds of thousands
of calls stays small in memory.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from codedbft import consensus, sim

# what a wrapped call adds to its span's `value` column
Counter = Callable[[tuple, Any], int]

def _run_attrs(result: sim.ExecutionResult) -> dict[str, int]:
    return {
        "events": len(result.transcript.events),
        "p2p_bits": result.ledger.total("p2p_bits"),
        "bcast_charged_bits": result.ledger.total("bcast_charged_bits"),
        "diagnosis_count": result.diagnosis_count,
        "edges_removed": len(result.graph.to_jsonable()["removed_edges"]),
        "convictions": len(result.graph.convicted),
    }


# (owner, attribute, span name, counter)
TARGETS: tuple[tuple[Any, str, str, Counter | None], ...] = (
    (sim, "run_execution", "sim.run_execution", None),
    (sim, "check_complexity", "sim.check_complexity", None),
    (sim.Transcript, "to_jsonl", "sim.to_jsonl", None),
    (sim.ExecutionConfig, "input_block", "sim.input_block", None),
    (sim, "encode", "rs.encode", lambda args, out: len(args[1])),
    (sim, "decode", "rs.decode", None),
    (sim, "reconstruct_position", "rs.reconstruct_position", None),
    (sim, "matching_obligations", "consensus.matching_obligations",
     lambda args, out: len(out)),
    (sim, "detection_flag", "consensus.detection_flag", lambda args, out: int(out)),
    (sim, "run_diagnosis", "consensus.run_diagnosis", None),
    (sim, "compute_match_bits", "quorum.compute_match_bits", None),
    (sim, "find_match_set", "quorum.find_match_set",
     lambda args, out: int(out is not None)),
    (consensus, "is_codeword", "rs.is_codeword", None),
    (consensus, "decode", "rs.decode", None),
    (consensus, "reconstruct_position", "rs.reconstruct_position", None),
)


class Tracer:
    """Records spans for the wrapped names while `recording` is true.

    Columns per span: name id, start, end, parent span index (-1 for a
    root), execution id, and one integer `value` from the target's
    counter. `run_execution` spans also get the result's ledger and
    diagnosis totals in `run_attrs`.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.execution: array = array("i")
        self.value: array = array("q")
        self.run_attrs: dict[int, dict[str, int]] = {}
        self.execution_id = 0
        self.recording = True
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.start)

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, name: str, counter: Counter | None) -> Callable:
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        is_run = name == "sim.run_execution"

        def wrapper(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.execution.append(self.execution_id)
            self.end.append(0.0)
            self.value.append(0)
            self._stack.append(index)
            self.start.append(perf_counter())
            try:
                out = original(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._stack.pop()
            if counter is not None:
                self.value[index] = counter(args, out)
            if is_run:
                self.run_attrs[index] = _run_attrs(out)
            return out

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self time, summed value."""
        out = {name: {"calls": 0, "self_s": 0.0, "value": 0} for name in self.names}
        for nid, own, value in zip(self.name_id, self.self_times(), self.value):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += own
            row["value"] += value
        run_row = out["sim.run_execution"]
        for attrs in self.run_attrs.values():
            for name, value in attrs.items():
                run_row[name] = run_row.get(name, 0) + value
        return out

    def write(self, path: Path, meta: dict) -> None:
        """One JSON header line with `meta`, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"meta": meta, "columns": [
                "name", "start", "end", "parent", "execution", "value", "run_attrs",
            ]}) + "\n")
            for i in range(len(self)):
                fh.write(json.dumps([
                    self.names[self.name_id[i]], self.start[i], self.end[i],
                    self.parent[i], self.execution[i], self.value[i],
                    self.run_attrs.get(i),
                ]) + "\n")
