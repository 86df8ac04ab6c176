"""Command line behaviour: block sizing, flags, exit codes, files."""

import dataclasses
import json
import math
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedbft import cli
from codedbft.cli import (
    build_config,
    build_script,
    choose_d,
    generate_inputs,
    main,
)
from codedbft.diagnosis import ConfigurationError
from codedbft.sim import ExecutionConfig
from golden_corpus import SCENARIOS, scenario_case

CASES = Path(__file__).parent / "cases"


# ------------------------------------------------------------- choose_d


def test_choose_d_reference_points():
    assert choose_d(2400, 4, 1) == 72
    assert choose_d(24, 4, 1) == 24
    assert choose_d(10**6, 4, 1) == 1008
    assert choose_d(8400, 7, 2) == 120
    assert choose_d(8400, 7, 2, q=3) == 96


def test_choose_d_rejects_sub_block_values():
    with pytest.raises(ConfigurationError):
        choose_d(16, 4, 1)  # one block needs 24 bits here


@given(
    blocks=st.integers(min_value=3, max_value=20000),
    shape=st.sampled_from([(4, 1, None), (7, 2, None), (7, 2, 3), (10, 3, 5)]),
)
def test_choose_d_is_aligned_and_balanced(blocks, shape):
    n, t, q = shape
    l_bits = 8 * blocks
    unit = 8 * (q if q is not None else n - t)
    if l_bits < unit:
        return
    d = choose_d(l_bits, n, t, q)
    assert d % unit == 0 and unit <= d <= l_bits
    target = math.isqrt(l_bits - 1) + 1
    if d < target:
        # only the cap at l_bits may push D below the balance point
        assert d == unit * (l_bits // unit)
    else:
        assert d - unit < target  # smallest aligned value above the target


# ----------------------------------------------------- scenario plumbing


def test_generate_inputs_layouts():
    explicit = generate_inputs(["aa", "bb", "cc", "dd"], 4, 8, seed=0)
    assert explicit == ("aa", "bb", "cc", "dd")
    same = generate_inputs({"generator": "identical"}, 4, 48, seed=3)
    assert len(set(same)) == 1
    split = generate_inputs({"generator": "split"}, 4, 48, seed=3)
    assert split[0] == split[1] != split[2] == split[3]
    prefix = generate_inputs(
        {"generator": "shared-prefix", "sharers": 3}, 4, 48, seed=3
    )
    assert len({prefix[0], prefix[1], prefix[2]}) == 1 != len(set(prefix))
    again = generate_inputs({"generator": "split"}, 4, 48, seed=3)
    assert again == split
    with pytest.raises(ConfigurationError):
        generate_inputs({"generator": "dunno"}, 4, 48, seed=3)


def test_field_table_covers_every_config_field_but_the_inputs():
    init = {f.name for f in dataclasses.fields(ExecutionConfig) if f.init}
    assert set(cli._FIELDS) == init - {"inputs"}


def test_build_config_fills_defaults_and_sizes_d():
    config = build_config({})
    assert (config.algorithm, config.n, config.t) == ("alg1", 4, 1)
    assert config.l_bits == 2400 and config.d_bits == 72
    assert config.q is None


def test_build_config_ignores_q_for_the_base_protocol():
    config = build_config({"q": 3})
    assert config.q is None


def test_build_script_resolves_crafted_names():
    config = build_config({"n": 4, "t": 1, "l_bits": 72, "d_bits": 24})
    script = build_script({"crafted": "corrupt-single-symbol"}, config)
    assert script.faulty == {4}
    with pytest.raises(ConfigurationError):
        build_script({"crafted": "does-not-exist"}, config)
    quiet = build_script({"faulty": [2]}, config)
    assert quiet.faulty == {2} and quiet.to_jsonable()["sends"] == {}


# ------------------------------------------------------------ exit codes


def test_run_scenario_writes_outputs(tmp_path, capsys):
    code = main([
        "run", "scenarios/faultfree_alg1.json", "--out-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "data_bits=9600" in out
    assert out.startswith("repro: scenario=scenarios/faultfree_alg1.json seed=1")
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "PASS"
    assert report["complexity"]["data_bits"] == 9600
    first = json.loads(
        (tmp_path / "transcript.jsonl").read_text().splitlines()[0]
    )
    assert first["type"] == "header"


def test_run_rejects_inconsistent_override(tmp_path, capsys):
    code = main([
        "run", "scenarios/n4.json", "--t", "2", "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert "n >= 3t+1" in capsys.readouterr().err


def test_run_rejects_missing_scenario(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_run_flags_beat_scenario_file(tmp_path, capsys):
    code = main([
        "run", "scenarios/faultfree_alg1.json",
        "--l-bits", "480", "--d-bits", "48", "--out-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    # 480 bits through the same pipe: 4*3/3 * 480 = 1920, and the file's
    # expected data_bits no longer matches, so the run reports the miss
    assert code == 1
    assert "data_bits=1920" in out
    assert "expected-mismatch" in out


def test_run_expected_mismatch_fails(tmp_path):
    scenario = {
        "name": "wrong-expectation",
        "n": 4, "t": 1, "l_bits": 240, "d_bits": 24,
        "inputs": {"generator": "identical"},
        "expected": {"outcome_kinds": ["TERMINATED_DEFAULT"]},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1


def test_sweep_writes_summary(tmp_path, capsys):
    code = main([
        "sweep", "--n", "4", "--t", "1", "--trials", "8",
        "--seed", "3", "--out-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "failures=0" in out
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 9 and lines[0].startswith("seed,algorithm")


def test_sweep_collects_rows_and_failures(tmp_path, capsys):
    assert main([
        "sweep", "--n", "4", "--t", "1", "--trials", "6", "--l-bits", "72",
        "--d-bits", "24", "--seed", "0", "--out-dir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "trials=6 failures=0" in out
    assert int(out.split("max_diagnoses=")[1].split()[0]) <= 3
    lines = (tmp_path / "summary.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == (
        "seed,algorithm,n,t,q,L,D,verdict,diagnosis_count,p2p_bits,bcast_bits"
    )
    assert len(lines) == 8 and lines[-1] == ""
    assert [line.split(",")[:7] for line in lines[1:3]] == [
        [str(seed), "alg1", "4", "1", "", "72", "24"] for seed in (0, 1)
    ]
    assert not list(tmp_path.glob("failure_*.json"))


def test_sweep_writes_a_replay_file_per_failure(tmp_path, capsys, monkeypatch):
    # fail every other run: the rows, files and exit code follow
    run = cli.run_execution

    def every_other_fails(config, script):
        result = run(config, script)
        return dataclasses.replace(
            result, verdict="FAIL" if config.seed % 2 else result.verdict
        )

    monkeypatch.setattr(cli, "run_execution", every_other_fails)
    assert main([
        "sweep", "--n", "4", "--t", "1", "--trials", "4",
        "--seed", "5", "--out-dir", str(tmp_path),
    ]) == 1
    assert "trials=4 failures=2" in capsys.readouterr().out
    rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[7] for row in rows] == ["FAIL", "PASS"] * 2
    assert sorted(p.name for p in tmp_path.glob("failure_*.json")) == [
        "failure_0000.json", "failure_0002.json"
    ]
    monkeypatch.undo()
    case = str(tmp_path / "failure_0002.json")
    assert main(["replay", case]) == 0
    assert "verdict=PASS identical=yes" in capsys.readouterr().out


def test_sweep_quorum_grid_needs_q(tmp_path):
    assert main([
        "sweep", "--alg", "alg2", "--n", "7", "--t", "2",
        "--trials", "2", "--out-dir", str(tmp_path),
    ]) == 2
    assert main([
        "sweep", "--alg", "alg2", "--n", "7", "--t", "2", "--q", "3..4",
        "--trials", "2", "--out-dir", str(tmp_path),
    ]) == 0


@pytest.mark.parametrize("flags, message", [
    (["--alg", "alg2", "--n", "7", "--t", "2", "--q", "5..3"], "names no quorum"),
    (["--l-bits", "0"], "l_bits=0"),
    (["--d-bits", "0"], "d_bits must be"),
    (["--n", "0"], "code dimension"),
    (["--trials", "0"], "runs nothing"),
])
def test_sweep_refuses_inputs_that_ran_nothing_or_the_defaults(
    flags, message, tmp_path, capsys
):
    assert main(["sweep", "--trials", "3", *flags, "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ({"algorithm": "alg3"}, "unknown algorithm 'alg3'"),
    ({"algorithm": "alg2"}, "alg2 requires q"),
    ({"n": 4.7}, "n must be an integer"),
    ({"t": "1.0"}, "t must be an integer"),
    ({"seed": [0]}, "seed must be an integer"),
    ({"l_bits": True}, "l_bits must be an integer"),
    ({"inputs": {"generator": "shared-prefix", "sharers": 9}}, "outside 1..4"),
    ({"inputs": {"generator": "shared-prefix", "sharers": 0}}, "outside 1..4"),
    ({"script": []}, "script must be a JSON object"),
    ({"script": {"sends": []}}, "sends must be a JSON object"),
    ({"script": {"faulty": [4], "broadcasts": {"1|detected|4": True}}},
     "broadcast rule 1|detected|4 must be a JSON object"),
    ({"script": {"sends": {"1|own|4|1": "x"}}},
     "send rule 1|own|4|1 must be a JSON object"),
    ({"script": {"faulty": [4], "broadcasts": {
        "1|match_bits|4": {"kind": "replace", "payload": [1, 0, 1, 1]}}}},
     "list of bools"),
    ({"expected": {"data_bits": 9600.5}}, "data_bits must be an integer"),
    ({"faulty": [True]}, "faulty id True is not an integer"),
    ({"faulty": [1, 1.0]}, "faulty id 1.0 is not an integer"),
    ({"faulty": ["1"]}, "faulty id '1' is not an integer"),
    ({"inputs": {"generator": "random", "seed": "abc"}}, "seed must be an integer"),
    ({"inputs": {"generator": "random", "seed": 1.5}}, "seed must be an integer"),
    ({"expected": {"outcome_kinds": "DECIDED"}},
     "outcome_kinds must be a list of strings"),
    ({"expected": {"outcome_kinds": ["DECIDED", 1]}},
     "outcome_kinds must be a list of strings"),
    ({"expected": {"diagnosis_count": "one"}}, "diagnosis_count must be an integer"),
    # rules that can never fire: n4.json runs 34 generations of 4 processors
    ({"script": {"faulty": [4], "sends": {"1|own|4|5": {"kind": "silent"}}}},
     "send rule 1|own|4|5: receiver not a peer in 1..4"),
    ({"script": {"faulty": [4], "sends": {"9|own|4|4": {"kind": "silent"}}}},
     "send rule 9|own|4|4: receiver not a peer"),
    ({"script": {"faulty": [4], "sends": {"0|helper|4|1": {"kind": "silent"}}}},
     "rule 0|helper|4|1: generation outside 1..34"),
    ({"script": {"faulty": [4], "broadcasts": {"35|detected|4": {"kind": "silent"}}}},
     "rule 35|detected|4: generation outside 1..34"),
    # a rule key of the wrong form, a rule object with a wrong or missing
    # key, and a rule the script refuses: every message names its rule
    ({"script": {"faulty": [4], "sends": {"1|own|4": {"kind": "silent"}}}},
     "send rule 1|own|4 is not of the form g|step|sender|receiver"),
    ({"script": {"faulty": [4], "sends": {"x|own|4|1": {"kind": "silent"}}}},
     "send rule x|own|4|1 is not of the form g|step|sender|receiver"),
    ({"script": {"faulty": [4], "broadcasts": {"1|detected|4|1": {"kind": "silent"}}}},
     "broadcast rule 1|detected|4|1 is not of the form g|tag|sender"),
    ({"script": {"faulty": [4], "broadcasts": {"1|detected|four": {"kind": "silent"}}}},
     "broadcast rule 1|detected|four is not of the form g|tag|sender"),
    ({"script": {"faulty": [4], "sends": {"1|own|4|1": {"kind": "silent", "dta": "ff"}}}},
     "unknown send rule 1|own|4|1 keys ['dta']"),
    ({"script": {"faulty": [4], "sends": {"1|own|4|1": {"data": "ff"}}}},
     "send rule 1|own|4|1 has no kind"),
    ({"script": {"faulty": [4], "sends": {"1|own|4|1": {"kind": "mute"}}}},
     "send rule 1|own|4|1: unknown send action 'mute'"),
    ({"script": {"faulty": [4], "sends": {
        "1|own|4|1": {"kind": "replace", "data": "zz"}}}},
     "send rule 1|own|4|1: non-hexadecimal number"),
    ({"script": {"faulty": [4], "broadcasts": {
        "1|detected|4": {"kind": "silent", "paylod": True}}}},
     "unknown broadcast rule 1|detected|4 keys ['paylod']"),
    ({"script": {"faulty": [4], "broadcasts": {"1|detected|4": {}}}},
     "broadcast rule 1|detected|4 has no kind"),
    ({"script": {"faulty": [4], "broadcasts": {"1|flag|4": {"kind": "silent"}}}},
     "broadcast rule 1|flag|4: unknown broadcast tag 'flag'"),
    ({"script": {"faulty": [4], "sends": {"1|own|3|1": {"kind": "silent"}}}},
     "send rule 1|own|3|1: processor 3 is not in the faulty set"),
    # "01" would silently replace the rule "1|own|4|1" of the same script
    ({"script": {"faulty": [4], "sends": {
        "1|own|4|1": {"kind": "replace", "data": "aa"}, "01|own|4|1": {"kind": "silent"}}}},
     "send rule 01|own|4|1 is not of the form g|step|sender|receiver"),
    # a match_bits payload of the wrong length, named as scripts write it
    ({"script": {"faulty": [4], "broadcasts": {
        "1|match_bits|4": {"kind": "replace", "payload": [True, False]}}}},
     "broadcast rule 1|match_bits|4 carries 2 bits, need 4"),
    # a faulty set that is not a JSON list, as a scenario key or in a script
    ({"faulty": 3}, "faulty must be a JSON list"),
    ({"faulty": "34"}, "faulty must be a JSON list"),
    ({"faulty": 0}, "faulty must be a JSON list"),
    ({"script": {"faulty": 3}}, "faulty must be a JSON list"),
    ({"script": {"faulty": "34"}}, "faulty must be a JSON list"),
])
def test_run_refuses_malformed_scenario_values(change, message, tmp_path, capsys):
    scenario = tmp_path / "s.json"
    data = json.loads((SCENARIOS / "n4.json").read_text())
    scenario.write_text(json.dumps({**data, **change}))
    assert main(["run", str(scenario), "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    # refused before the run: nothing is written
    assert not (tmp_path / "out").exists()


def test_run_refuses_a_malformed_expected_block_before_the_run(tmp_path, capsys):
    case = CASES / "outcome_kinds_string.json"
    assert main(["run", str(case), "--out-dir", str(tmp_path)]) == 2
    assert "outcome_kinds must be a list of strings" in capsys.readouterr().err
    assert not (tmp_path / "transcript.jsonl").exists()


def test_replay_refuses_a_rule_that_is_not_an_object(capsys):
    assert main(["replay", str(CASES / "script_rule_not_an_object.json")]) == 2
    assert "send rule 1|own|4|1 must be a JSON object" in capsys.readouterr().err


def test_run_refuses_a_send_rule_key_of_three_parts(tmp_path, capsys):
    case = CASES / "script_rule_key_short.json"
    assert main(["run", str(case), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "send rule 1|own|4 is not of the form g|step|sender|receiver" in err
    assert not (tmp_path / "out").exists()


def test_replay_round_trips_a_case(tmp_path):
    from codedbft.sim import random_script, serialize_case

    config = build_config({"l_bits": 72, "d_bits": 24, "seed": 11})
    case = tmp_path / "case.json"
    case.write_text(serialize_case(config, random_script(config, 11)))
    assert main(["replay", str(case)]) == 0


def test_replay_rejects_unknown_config_key(capsys):
    case = CASES / "misspelled_config_key.json"
    assert main(["replay", str(case)]) == 2
    assert "broadcast_coeficient" in capsys.readouterr().err


def test_replay_and_run_reject_unknown_script_keys(tmp_path, capsys):
    # "send" for "sends": the rule would otherwise vanish into a quiet script
    case = CASES / "misspelled_script_key.json"
    assert main(["replay", str(case)]) == 2
    assert "unknown script keys ['send']" in capsys.readouterr().err
    script = tmp_path / "script.json"
    script.write_text(json.dumps(json.loads(case.read_text())["script"]))
    argv = ["run", "--script", str(script), "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "unknown script keys ['send']" in capsys.readouterr().err


def test_run_rejects_unknown_scenario_keys(tmp_path, capsys):
    # "l_bit" for "l_bits": the run would otherwise take the default L
    out = ["--out-dir", str(tmp_path / "out")]
    case = CASES / "misspelled_scenario_key.json"
    assert main(["run", str(case), *out]) == 2
    assert "unknown scenario keys ['l_bit']" in capsys.readouterr().err
    data = json.loads((SCENARIOS / "n4.json").read_text())
    for change, message in [
        ({"l_bit": 480, "comment": "x"}, "unknown scenario keys ['comment', 'l_bit']"),
        ({"expected": {"verdcit": "PASS", "verdict": "PASS"}},
         "unknown expected keys ['verdcit']"),
        ({"expected": "PASS"}, "expected must be a JSON object"),
    ]:
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({**data, **change}))
        assert main(["run", str(scenario), *out]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_unknown_inputs_generator_keys(tmp_path, capsys):
    # "sharer" for "sharers": the run would otherwise share among n-1
    case = CASES / "misspelled_inputs_key.json"
    assert main(["run", str(case), "--out-dir", str(tmp_path / "out")]) == 2
    assert "unknown inputs keys ['sharer']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_replay_rejects_unknown_case_keys(tmp_path, capsys):
    config = build_config({"l_bits": 72, "d_bits": 24, "seed": 11})
    doc = {"config": config.to_jsonable(), "script": {}, "scirpt": {}}
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    assert main(["replay", str(case)]) == 2
    assert "unknown case keys ['scirpt']" in capsys.readouterr().err
    del doc["scirpt"]
    case.write_text(json.dumps(doc))
    assert main(["replay", str(case)]) == 0


def test_run_refuses_faulty_next_to_a_script_or_crafted_case(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"faulty": [4]}))
    out = ["--out-dir", str(tmp_path / "out")]
    argv = ["run", "scenarios/n4.json", "--script", str(script), "--faulty", "2"]
    assert main(argv + out) == 2
    err = capsys.readouterr().err
    assert "--faulty" in err and "--script" in err
    assert main(["run", "scenarios/corrupt_once.json", "--faulty", "2"] + out) == 2
    err = capsys.readouterr().err
    assert "--faulty" in err and "crafted" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ["--alg", "alg2", "--n", "7", "--t", "2", "--q", "5", "--l-bits", "840",
     "--faulty", "7"],
    [str(SCENARIOS / "n4.json"), "--seed", "5", "--d-bits", "48",
     "--script", "{script}"],
])
def test_repro_line_reruns_to_the_same_transcript(flags, tmp_path, capsys):
    from codedbft.scripts import corrupt_symbol_case

    data = json.loads((SCENARIOS / "n4.json").read_text())
    config = build_config({**data, "d_bits": 48})
    script = tmp_path / "script.json"
    script.write_text(json.dumps(corrupt_symbol_case(config).script.to_jsonable()))
    flags = [word.replace("{script}", str(script)) for word in flags]
    assert main(["run", *flags, "--out-dir", str(tmp_path / "first")]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    words = shlex.split(line)
    assert words[0] == "repro:" and words[1].startswith("scenario=")
    scenario = words[1].removeprefix("scenario=")
    rerun = ([] if scenario == "-" else [scenario]) + words[3:]
    assert sorted(rerun) == sorted(flags)
    assert main(["run", *rerun, "--out-dir", str(tmp_path / "second")]) == 0
    first, second = (
        (tmp_path / name / "transcript.jsonl").read_bytes()
        for name in ("first", "second")
    )
    assert first == second


def test_replay_refuses_the_retired_option(capsys):
    assert main(["replay", str(CASES / "retired_config_key.json")]) == 2
    assert "stop_when_no_match_set" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario", ["faultfree_alg1_n7.json", "quorum_false_flag.json"]
)
def test_run_writes_the_bytes_of_to_jsonl(scenario, tmp_path):
    from codedbft import sim

    assert main(["run", str(SCENARIOS / scenario), "--out-dir", str(tmp_path)]) == 0
    expected = sim.run_execution(*scenario_case(scenario)).transcript.to_jsonl()
    assert (tmp_path / "transcript.jsonl").read_bytes() == expected.encode()


def test_acceptance_quick_passes(capsys):
    code = main(["acceptance", "--quick"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 10, lines
    for number, line in enumerate(lines[:9], 1):
        assert line.startswith(f"criterion {number} PASS ("), line
    assert lines[9].startswith("9/9 criteria passed in "), lines[9]


# ------------------------------------------------------------------ fuzz

# small numbers keep every run that gets through validation short
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
FUZZ_SCENARIO = {
    "name": "fuzz", "algorithm": "alg1", "n": 4, "t": 1, "q": None,
    "l_bits": 48, "d_bits": 24, "seed": 1, "broadcast_coefficient": 1,
    "inputs": {"generator": "identical"}, "expected": {"verdict": "PASS"},
}
FUZZ_SCRIPT = {
    "faulty": [4],
    "sends": {"1|own|4|1": {"kind": "corrupt", "data": "01"}},
    "broadcasts": {"1|detected|4": {"kind": "replace", "payload": True}},
}
SCENARIO_KEYS = [*FUZZ_SCENARIO, "script", "crafted", "faulty"]
SCRIPT_KEYS = [*FUZZ_SCRIPT, "1|own|4|1", "1|detected|4"]


def with_script_key(script, key, value):
    """`script` with one top-level key, or one rule by its key, replaced."""
    if key in script:
        return {**script, key: value}
    table = "sends" if key.count("|") == 3 else "broadcasts"
    return {**script, table: {key: value}}


def exit_code(command, doc):
    """`codedbft run` or `codedbft replay` on `doc`, written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out = ["--out-dir", tmp] if command == "run" else []
        return main([command, str(path), *out])


FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@FUZZ
@given(
    target=st.sampled_from(["scenario", "script"]),
    scenario_key=st.sampled_from(SCENARIO_KEYS),
    script_key=st.sampled_from(SCRIPT_KEYS),
    value=JSON,
)
def test_run_exits_0_1_or_2_on_any_scenario_value(
    target, scenario_key, script_key, value
):
    if target == "scenario":
        doc = {**FUZZ_SCENARIO, scenario_key: value}
    else:
        script = with_script_key(FUZZ_SCRIPT, script_key, value)
        doc = {**FUZZ_SCENARIO, "script": script}
    assert exit_code("run", doc) in (0, 1, 2)


@FUZZ
@given(
    target=st.sampled_from(["case", "config", "script"]),
    key=st.sampled_from(["config", "script", "extra"]),
    config_key=st.sampled_from(
        [f.name for f in dataclasses.fields(ExecutionConfig) if f.init]
    ),
    script_key=st.sampled_from(SCRIPT_KEYS),
    value=JSON,
)
def test_replay_exits_0_1_or_2_on_any_case_value(
    target, key, config_key, script_key, value
):
    config = build_config(FUZZ_SCENARIO)
    case = {"config": config.to_jsonable(), "script": FUZZ_SCRIPT}
    if target == "case":
        case[key] = value
    elif target == "config":
        case["config"] = {**case["config"], config_key: value}
    else:
        case["script"] = with_script_key(FUZZ_SCRIPT, script_key, value)
    assert exit_code("replay", case) in (0, 1, 2)
