"""SHA-256 of the transcripts of a fixed case corpus, frozen in golden_transcripts.json.

`golden_corpus.py` builds the corpus. A refactor or speed-up must leave
every hash unchanged; a change that alters transcripts on purpose
re-records the file and says why. The hashes are of v8 transcripts;
`v1_fixtures/` keeps four v1 transcripts of the corpus, with their v1
and v7 golden hashes below, that `transcript_v1.v4_waves_from_v1`, then
`transcript_v2.v3_from_v2`, `transcript_v4.v5_from_v4`,
`transcript_v5.v6_from_v5`, `transcript_v6.v7_from_v6` and, with the v1
symbols, `transcript_v7.v8_from_v7` must fold into today's transcripts
byte for byte, or, for the alg2 fixture, into its pinned v8 hash. Folded
with `v2_from_v1` instead, they give the v3 transcripts, from which v4
differs only in its `WAVE` and `SYMBOL_SENT` lines; v5 differs from v4
only in its match-bit payloads.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from codedbft import cli
from codedbft.consensus import (
    ALG1,
    ALG2,
    OUTCOME_DECIDED,
    OUTCOME_DEFAULT,
    OUTCOME_DIAGNOSED,
    OUTCOME_TERMINATED,
    RULE_SILENT_MATCH_VECTOR,
)
from codedbft.check import span
from codedbft.sim import (
    AdversaryScript, CostLedger, Execution, ExecutionConfig, Transcript, run_execution,
)
from golden_corpus import (
    POINTS,
    SCENARIOS,
    all_cases,
    case_key,
    corpus_sweeps,
    crafted_corpus,
    exit_cases,
)
from event_state import rebuilt_graph, rebuilt_outputs
from ledger_oracle import ledger_totals, resum_ledger
from transcript_v1 import v2_from_v1, v4_waves_from_v1
from transcript_v2 import v3_from_v2
from transcript_v4 import v4_from_v5, v5_from_v4
from transcript_v5 import digest_claims, v5_from_v6, v6_from_v5
from transcript_v6 import v6_from_v7, v7_from_v6
from transcript_v7 import v8_from_v7
import wave_oracle

GOLDEN = json.loads((Path(__file__).parent / "golden_transcripts.json").read_text())
V1_FIXTURES = Path(__file__).parent / "v1_fixtures"

# fixture: (golden section, key, SHA-256 of the case's v1 transcript, of its
# v7 transcript, and of its v8 transcript when that is not today's: the alg2
# fixture's case moved when alg2 stopped sending a helper wave before its
# match set)
V1_GOLDEN = {
    "corrupt_once.jsonl": (
        "scenarios", "corrupt_once.json",
        "b5fd5c376e71e5aef44018eff8f655fcd5a2cfd41bfd80e6108e1c6a03cea1bc",
        "9ea1bcc74cd19a68c54491a6a8a9035291b12c6b8141e7183b4a48d1eb0029b1",
        None,
    ),
    "split_inputs.jsonl": (
        "scenarios", "split_inputs.json",
        "52f5ac9b8e8a94e3e56f5e6bdc7f596be1bd58d52123b46d5e5561e9468d6b47",
        "61322449e531cd1d152d38c55894fd5a78265aa40f59068361a15820264517f4",
        None,
    ),
    "alg1-qNone-honest-looking-equivocation.jsonl": (
        "crafted", "alg1-qNone-honest-looking-equivocation",
        "6727c6158eeb80a3bf23c29d761892ffe5fcdb0f52a09686fb0904ea55552fac",
        "976eb50a85f3c1ccdb9f6e106a72631a54333992acb0807ac1cc24944e84f70a",
        None,
    ),
    "alg2-q5-wrong-reconstruction-claim.jsonl": (
        "crafted", "alg2-q5-wrong-reconstruction-claim",
        "817daac7edd1d930ff7ecdd2158503f7b0be09fa7ee95f1c455b548e0a45888e",
        "b11bc7ea03f3e75c46c849e3d7c0176f219f123c008ad8c0bd5ced634bb77b8f",
        "54428f605a0421a8dc19e27cd43d2df0c1d369b2e07904fe24621f0b1867a8ea",
    ),
}


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


def test_exit_transcript_hashes():
    got = {
        key: digest(run_execution(config, script).transcript.to_jsonl().encode())
        for key, (config, script) in exit_cases().items()
    }
    assert got == GOLDEN["exits"]


def test_lines_write_each_event_as_json_dumps_does():
    """The prebuilt line encoder against `json.dumps`, on every event of the
    corpus and one event of the values it never writes."""
    transcript = Transcript()
    for config, script in all_cases().values():
        transcript.events += run_execution(config, script).transcript.events
    transcript.events.append({
        "type": "NOTE", "text": "généré ✓", "none": None, "flag": True,
        "map": {"10": [False, None], "2": {"b": "x", "a": 3}},
    })
    want = [json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
            for e in transcript.events]
    assert list(transcript.lines()) == want



def test_lines_splice_a_header_of_three_input_values_as_json_dumps_writes_it():
    """The header's hex goes in between quotes without the encoder; the rest
    of the line, the script's keys included, is the encoder's."""
    inputs = ("00ff", "a1b2", "00ff", "c3d4")
    config = ExecutionConfig(algorithm="alg1", n=4, t=1, l_bits=16, d_bits=24,
                             inputs=inputs)
    script = AdversaryScript([4]).add_send(1, "own", 4, 1, "replace", b"\x01")
    transcript = run_execution(config, script).transcript
    header = transcript.events[0]
    assert header["input_values"] == ["00ff", "a1b2", "c3d4"]
    assert next(transcript.lines()) == json.dumps(
        header, sort_keys=True, separators=(",", ":")) + "\n"

def test_corpus_reaches_every_generation_exit():
    """Each way a generation ends, as (algorithm, outcome, diagnosed in
    that generation), plus alg2's silent-match-vector convictions. alg1
    never terminates undiagnosed: the match set it carries is the last
    decide set, which holds no processor convicted by then."""
    seen = set()
    for config, script in all_cases().values():
        events = run_execution(config, script).transcript.events
        diagnosed = [
            e["g"] for e in events
            if e["type"] == "ROUND" and e["tag"] == "coded"
        ]
        for e in events:
            if e["type"] in ("DECIDED", OUTCOME_TERMINATED):
                kind = e.get("kind", OUTCOME_TERMINATED)
                seen.add((config.algorithm, kind, e["g"] in diagnosed))
            elif e.get("rule") == RULE_SILENT_MATCH_VECTOR:
                seen.add(RULE_SILENT_MATCH_VECTOR)
    assert seen == {
        (ALG1, OUTCOME_DECIDED, False),
        (ALG2, OUTCOME_DECIDED, False),
        (ALG1, OUTCOME_DIAGNOSED, True),
        (ALG2, OUTCOME_DIAGNOSED, True),
        (ALG1, OUTCOME_TERMINATED, True),
        (ALG2, OUTCOME_DEFAULT, False),
        (ALG2, OUTCOME_DEFAULT, True),
        RULE_SILENT_MATCH_VECTOR,
    }


def test_ledgers_resum_from_the_transcript():
    cases = all_cases()
    assert len(cases) == 86
    for key, (config, script) in cases.items():
        result = run_execution(config, script)
        events = result.transcript.events
        cells = resum_ledger(events)
        assert cells == result.ledger.to_jsonable(), key
        assert ledger_totals(cells) == events[-1]["ledger"], key


def test_ledger_sums_again_from_a_transcript_read_back_from_its_text():
    """The config rebuilt from the header and the ledger summed from the
    parsed lines; the case's silent broadcasts charge zero bits."""
    config, script = all_cases()["alg1-qNone-total-silence"]
    result = run_execution(config, script)
    events = [json.loads(line) for line in result.transcript.to_jsonl().splitlines()]
    assert any(e["type"] == "BROADCAST" and e["payload_bits"] == 0 for e in events)
    assert any(e["type"] == "ROUND" and "-" in e.get("payload", "") for e in events)
    header = events[0]
    inputs = [header["input_values"][i] for i in header["config"]["inputs"]]
    read = ExecutionConfig.from_jsonable({**header["config"], "inputs": inputs})
    ledger = CostLedger(read, events)
    assert ledger.to_jsonable() == result.ledger.to_jsonable()
    assert ledger.totals() == events[-1]["ledger"] == result.ledger.totals()


def test_v1_fixtures_fold_into_todays_transcripts():
    assert {path.name for path in V1_FIXTURES.iterdir()} == set(V1_GOLDEN)
    cases = all_cases()
    for name, (section, key, v1_hash, v7_hash, v8_hash) in V1_GOLDEN.items():
        v1 = (V1_FIXTURES / name).read_bytes()
        assert digest(v1) == v1_hash, name
        config, script = cases[key]
        v4 = v3_from_v2(v4_waves_from_v1(v1.decode()))
        v5 = v5_from_v4(v4)
        assert v4_from_v5(v5) == v4, name
        v6 = v6_from_v5(v5)
        assert v5_from_v6(v6) == digest_claims(v5), name
        v7 = v7_from_v6(v6)
        assert digest(v7.encode()) == v7_hash, name
        assert_v6_but_merged_digests(v6_from_v7(v7), v6)
        v8 = v8_from_v7(v7, v1.decode())
        if v8_hash is None:
            assert v8 == run_execution(config, script).transcript.to_jsonl(), name
        assert digest(v8.encode()) == (v8_hash or GOLDEN[section][key]), name
        # only the alg2 fixture broadcasts match bits
        assert (v4 != v5) == name.startswith("alg2"), name


def assert_v6_but_merged_digests(back, v6):
    """`back` is `v6` but for null `WAVE` digests, each of a merged range."""
    back, v6 = back.splitlines(), v6.splitlines()
    assert len(back) == len(v6)
    for got, want in zip(back, v6):
        if got != want:
            got, want = json.loads(got), json.loads(want)
            assert got["type"] == "WAVE" and got == {**want, "sha256": None}


def test_every_corpus_wave_delivers_like_the_oracle(monkeypatch):
    """Each wave of every corpus run leaves the received words and writes
    the events that `wave_oracle.deliver` gives, obligation by obligation.
    A wave of a quiet stretch is checked lane by lane: lane j of its wide
    words (byte b at b*width + j) is generation g+j's wave, whose events
    are the step's lines, written once for every lane, with the digest of
    lane j's records."""
    real_send_wave, waves = Execution._send_wave, [0, 0]

    def send_wave(self, g, step, runs, coded, received, suppressed=frozenset()):
        lines, records, width = self._lines, self._waves, self._width
        before = (len(lines), len(records))

        def lane(word, j):
            return [None if v is None else v[j::width] for v in word]
        obligations = [
            (sender, receiver, slot)
            for sender, slot, receivers, _ in runs for receiver in receivers
        ]
        wants = []
        for j in range(width):
            expected = {p: lane(word, j) for p, word in received.items()}
            want = wave_oracle.deliver(
                g + j, step, obligations, {p: lane(w, j) for p, w in coded.items()},
                expected, self.script.faulty, self.script.send, suppressed,
            )
            wants.append((expected, want))
        real_send_wave(self, g, step, runs, coded, received, suppressed)
        for j, (expected, want) in enumerate(wants):
            lane_digests = iter(hashlib.sha256(d[j]).hexdigest() for d in records[before[1]:])
            assert [
                {**e, "g": g + j, **({"sha256": next(lane_digests)} if e["type"] == "WAVE" else {})}
                for e in lines[before[0]:]
            ] == want
            assert {p: lane(word, j) for p, word in received.items()} == expected
        waves[0] += width
        waves[1] += width > 1
    monkeypatch.setattr(Execution, "_send_wave", send_wave)
    hashes = {key: h for section in GOLDEN.values() for key, h in section.items()}
    for key, (config, script) in all_cases().items():
        transcript = run_execution(config, script).transcript.to_jsonl()
        assert digest(transcript.encode()) == hashes[key], key
    # generation waves, and wide ones among the calls
    assert waves[0] > 1000 and waves[1] > 50


def test_a_fault_free_64_kib_run_writes_five_lines():
    """alg1 n=7 t=2 deciding one 64 KiB value in 690 generations, the
    benchmark's long-value run: every generation writes the same lines, so
    the transcript is the header, one line per kind over [1, 690] and the
    verdict, and the `DECIDED` value names the one input."""
    data = {
        "algorithm": ALG1, "n": 7, "t": 2, "l_bits": 64 * 1024 * 8, "seed": 3001,
        "inputs": {"generator": "identical"},
    }
    config = cli.build_config(data)
    text = run_execution(config, cli.build_script(data, config)).transcript.to_jsonl()
    events = [json.loads(line) for line in text.splitlines()]
    assert config.generations == 690
    assert [(e["type"], e.get("g")) for e in events] == [
        ("header", None), ("WAVE", [1, 690]), ("ROUND", [1, 690]), ("DECIDED", [1, 690]),
        ("VERDICT", None),
    ]
    assert events[3]["value"] == 0 and events[-1]["verdict"] == "PASS"
    assert len(text) < 140_000


def test_v4_rewrites_only_the_traffic_of_v3():
    """Each fixture's v3 transcript against its v4 one: every line but the
    `WAVE` and `SYMBOL_SENT` ones is kept in order, v4's `SYMBOL_SENT`
    lines are a subsequence of v3's, and each (g, step) keeps its symbol
    total, the `WAVE` counts plus the `SYMBOL_SENT` lines."""
    traffic = ("WAVE", "SYMBOL_SENT")

    def parts(text):
        events = [(line, json.loads(line)) for line in text.splitlines()]
        totals = {}
        for _, e in events:
            if e["type"] in traffic:
                key = (e["g"], e["step"])
                totals[key] = totals.get(key, 0) + e.get("count", 1)
        return (
            [line for line, e in events if e["type"] not in traffic],
            [line for line, e in events if e["type"] == "SYMBOL_SENT"],
            totals,
        )

    folded = 0
    for name in V1_GOLDEN:
        v1 = (V1_FIXTURES / name).read_text()
        v3_kept, v3_lines, v3_totals = parts(v3_from_v2(v2_from_v1(v1)))
        v4_kept, v4_lines, v4_totals = parts(v3_from_v2(v4_waves_from_v1(v1)))
        assert v4_kept == v3_kept and v4_totals == v3_totals, name
        rest = iter(v3_lines)
        assert all(line in rest for line in v4_lines), name
        folded += len(v3_lines) - len(v4_lines)
    assert folded


def test_inputs_and_outputs_read_back_from_the_transcript():
    """Every processor's input from the header's indices into
    `input_values`, and every fault-free output rebuilt from the
    `DECIDED` lines, whose SHA-256 `VERDICT`'s indices into
    `output_sha256` give. The finished run's verdict, violations and
    diagnosis count are the ones its `VERDICT` line records."""
    for key, (config, script) in all_cases().items():
        result = run_execution(config, script)
        events = result.transcript.events
        header, verdict = events[0], events[-1]
        assert (result.verdict, result.violations, result.diagnosis_count) == (
            verdict["verdict"], verdict["violations"], verdict["diagnosis_count"]
        ), key
        inputs = [header["input_values"][i] for i in header["config"]["inputs"]]
        assert inputs == list(config.inputs), key
        outputs = rebuilt_outputs(events)
        assert outputs == result.outputs, key
        assert {
            int(p): verdict["output_sha256"][i] for p, i in verdict["outputs"].items()
        } == {p: digest(v) for p, v in outputs.items()}, key


def test_trust_graphs_read_back_from_the_transcript():
    """The graph rebuilt from the `EDGE_REMOVED` and `CONVICTED` lines is
    the run's, though no line follows a conviction: `VERDICT` records its
    convicted processors and the number of edges it removed."""
    convictions = edges = 0
    for key, (config, script) in all_cases().items():
        result = run_execution(config, script)
        events = result.transcript.events
        graph = rebuilt_graph(events)
        assert graph == result.graph.to_jsonable(), key
        assert events[-1]["graph"] == {
            "convicted": graph["convicted"], "edges_removed": len(graph["removed_edges"])
        }, key
        convictions += len(graph["convicted"])
        edges += len(graph["removed_edges"])
    assert edges > convictions > 0


def test_claim_lines_are_the_claims_the_script_rules():
    """Each claim round writes a `BROADCAST` line for exactly the senders
    the header's script has a rule for, and counts the others. The engine
    folds a claim by its value, so no corpus rule repeats an honest claim."""
    ruled_lines = 0
    for key, (config, script) in all_cases().items():
        events = run_execution(config, script).transcript.events
        rules = events[0]["script"]["broadcasts"]
        convicted, lines = set(), []
        for e in events:
            if e["type"] == "CONVICTED":
                convicted.add(e["processor"])
            elif e["type"] == "BROADCAST":
                lines.append(e["sender"])
            elif e["type"] == "ROUND" and e["tag"] in ("coded", "received"):
                senders = [p for p in range(1, config.n + 1) if p not in convicted]
                a, b = span(e["g"])
                for g in range(a, b + 1):
                    ruled = [p for p in senders if f"{g}|{e['tag']}|{p}" in rules]
                    assert lines == ruled, key
                assert e["count"] == len(senders) - len(ruled), key
                ruled_lines += len(lines)
                lines = []
        assert not lines, key
    assert ruled_lines
