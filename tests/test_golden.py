"""SHA-256 of the transcripts of a fixed case corpus, frozen in golden_transcripts.json.

`golden_corpus.py` builds the corpus. A refactor or speed-up must leave
every hash unchanged; a change that alters transcripts on purpose
re-records the file and says why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from codedbft import cli
from codedbft.sim import run_execution
from golden_corpus import (
    POINTS,
    SCENARIOS,
    all_cases,
    case_key,
    corpus_sweeps,
    crafted_corpus,
)
from ledger_oracle import resum_ledger

GOLDEN = json.loads((Path(__file__).parent / "golden_transcripts.json").read_text())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_scenario_has_a_golden_hash():
    names = {path.name for path in SCENARIOS.glob("*.json")}
    assert names == set(GOLDEN["scenarios"])


@pytest.mark.parametrize("name", sorted(GOLDEN["scenarios"]))
def test_scenario_transcript_hash(name, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", str(SCENARIOS / name), "--out-dir", str(tmp_path)])
    got = digest((tmp_path / "transcript.jsonl").read_bytes())
    assert got == GOLDEN["scenarios"][name]


def test_sweep_corpus_matches_golden_keys():
    keys = [case_key(config) for a, q in POINTS for config, _ in corpus_sweeps(a, q)]
    assert len(keys) == len(set(keys)) == 48
    assert set(keys) == set(GOLDEN["sweep"])


@pytest.mark.parametrize("algorithm,q", POINTS)
def test_sweep_transcript_hashes(algorithm, q):
    got = {}
    for config, script in corpus_sweeps(algorithm, q):
        transcript = run_execution(config, script).transcript.to_jsonl()
        got[case_key(config)] = digest(transcript.encode())
    assert got == {key: GOLDEN["sweep"][key] for key in got}


def test_crafted_corpus_matches_golden_keys():
    keys = [key for a, q in POINTS for key in crafted_corpus(a, q)]
    assert len(keys) == len(set(keys)) == 29
    assert set(keys) == set(GOLDEN["crafted"])


@pytest.mark.parametrize("algorithm,q", POINTS)
def test_crafted_transcript_hashes(algorithm, q):
    got = {
        key: digest(run_execution(config, script).transcript.to_jsonl().encode())
        for key, (config, script) in crafted_corpus(algorithm, q).items()
    }
    assert got == {key: GOLDEN["crafted"][key] for key in got}


def test_ledgers_resum_from_the_transcript():
    cases = all_cases()
    assert len(cases) == 84
    for key, (config, script) in cases.items():
        events = run_execution(config, script).transcript.events
        assert resum_ledger(events) == events[-1]["ledger"], key
