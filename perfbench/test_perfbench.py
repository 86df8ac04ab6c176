"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# same names, checks and timed steps as the real table, at tiny sizes
TINY = {
    name: dataclasses.replace(workloads.WORKLOADS[name], build=build)
    for name, build in (
        ("alg1-n7-64k", lambda seed: workloads.alg1_cases(seed, n=4, t=1, l_bits=768)),
        ("sweep-adv-n7", lambda seed: workloads.sweep_cases(seed, trials=6)),
        ("alg2-nomatch-n19", lambda seed: workloads.alg2_nomatch_cases(seed, l_bits=112)),
    )
}


def invoke(capsys, name: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("name", sorted(TINY))
def test_runs_repeat_and_tracing_changes_nothing(capsys, tmp_path, name):
    originals = [owner.__dict__[attr] for owner, attr, _, _ in spans.TARGETS]
    first_meta, first = invoke(capsys, name, 3, 0)
    second_meta, second = invoke(capsys, name, 3, 0)
    traced_meta, traced = invoke(capsys, name, 3, 1)

    for result in (first, second, traced):
        assert result["correct"] and result["failed"] == 0
    for key in ("transcript_sha256", "ledger"):
        assert first_meta[key] == second_meta[key] == traced_meta[key]
    assert first["metrics"]["transcript_bytes"] == second["metrics"]["transcript_bytes"]
    assert traced["metrics"]["sim.ledger.p2p_bits"]["value"] == first_meta["ledger"]["p2p_bits"]
    assert traced["metrics"]["sim.diagnosis_count"]["value"] == (
        first_meta["ledger"]["diagnosis_count"]
    )
    assert originals == [owner.__dict__[attr] for owner, attr, _, _ in spans.TARGETS]
    assert (tmp_path / f"spans-{name}.jsonl").stat().st_size > 0

    for key, result in (("end_to_end", first), ("per_layer", traced)):
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_another_seed_gives_other_inputs(capsys):
    one, _ = invoke(capsys, "sweep-adv-n7", 3, 0)
    other, _ = invoke(capsys, "sweep-adv-n7", 4, 0)
    assert one["transcript_sha256"] != other["transcript_sha256"]


def test_self_times_subtract_child_spans():
    tracer = spans.Tracer()
    tracer.names = ["outer", "inner"]
    for nid, start, end, parent in ((0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 6.0, 0)):
        tracer.name_id.append(nid)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    assert tracer.self_times() == [6.0, 3.0, 1.0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "alg1-n7-64k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_predictions_cite_benchmark_names():
    doc = json.loads((HERE / "predictions.json").read_text())
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    names = {w["name"] for w in BENCHMARK["workloads"]}
    cited = set()
    for item in doc["predictions"]:
        assert set(item["per_layer"]) <= per_layer
        assert set(item["end_to_end"]) <= end_to_end
        assert set(item["on"]) | set(item["not_on"]) <= names
        cited |= set(item["per_layer"])
    assert cited == per_layer
    assert names == set(workloads.WORKLOADS)
