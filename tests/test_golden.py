"""SHA-256 of the transcripts of a fixed case corpus, frozen in golden_transcripts.json.

The corpus is every scenarios/*.json file, run the way `codedbft run`
runs it, plus 48 random-adversary sweep cases at n=7, t=2: alg1 and alg2
at q=3, 4, 5, each with nine short cases (1-byte symbols) and three
three-generation cases with 64-byte symbols, the input styles rotating
as in `codedbft sweep`. It also holds every crafted adversary of
`codedbft.scripts` at n=7, t=2 with three one-unit generations, for alg1
and alg2 at q=3, 4, 5 (29 cases), which reach the diagnosis rules and
the helper wave that random scripts miss. A refactor or speed-up must
leave every hash unchanged; a change that alters transcripts on purpose re-records the
file and says why.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from codedbft import cli
from codedbft.scripts import crafted_cases
from codedbft.sim import ALG1, ALG2, ExecutionConfig, random_inputs, run_execution

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden_transcripts.json").read_text())

N, T = 7, 2
POINTS = ((ALG1, None), (ALG2, 3), (ALG2, 4), (ALG2, 5))


def corpus_sweeps(algorithm: str, q: int | None) -> list:
    """Short cases from seed 100, then 64-byte-symbol cases from seed 200."""
    k = q if q is not None else N - T
    short = cli.sweep_cases(algorithm, N, T, [q], 9, 100)
    wide = cli.sweep_cases(
        algorithm, N, T, [q], 3, 200, l_bits=8 * k * 64 * 3, d_bits=8 * k * 64
    )
    return short + wide


def case_key(config) -> str:
    return (
        f"{config.algorithm}-q{config.q}-L{config.l_bits}"
        f"-D{config.d_bits}-seed{config.seed}"
    )


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_scenario_has_a_golden_hash():
    names = {path.name for path in (ROOT / "scenarios").glob("*.json")}
    assert names == set(GOLDEN["scenarios"])


@pytest.mark.parametrize("name", sorted(GOLDEN["scenarios"]))
def test_scenario_transcript_hash(name, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", str(ROOT / "scenarios" / name), "--out-dir", str(tmp_path)])
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


def crafted_config(algorithm: str, q: int | None) -> ExecutionConfig:
    """Three one-unit generations on the layout the crafted builders assume."""
    k = q if q is not None else N - T
    rng = random.Random(300 + (q or 0))
    sharers = None if algorithm == ALG1 else range(1, N - T + 1)
    inputs = random_inputs(rng, N, 8 * k * 3, sharers=sharers)
    return ExecutionConfig(
        algorithm=algorithm, n=N, t=T, q=q, l_bits=8 * k * 3, d_bits=8 * k,
        inputs=inputs, seed=rng.randrange(1000),
    )


def crafted_corpus(algorithm: str, q: int | None) -> dict:
    config = crafted_config(algorithm, q)
    return {
        f"{algorithm}-q{q}-{case.name}": (config, case.script)
        for case in crafted_cases(config)
    }


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
