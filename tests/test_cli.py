"""Command line behaviour: block sizing, overrides, exit codes, files."""

import json
import math
import shlex
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codedbft.cli import (
    build_config,
    build_script,
    choose_d,
    generate_inputs,
    main,
    parse_override,
)
from codedbft.diagnosis import ConfigurationError
from golden_corpus import SCENARIOS, scenario_case


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


def test_parse_override_accepts_aliases():
    assert parse_override("t=2") == ("t", 2)
    assert parse_override("alg=alg2") == ("algorithm", "alg2")
    assert parse_override("l-bits=480") == ("l_bits", 480)
    assert parse_override("q=none") == ("q", None)
    for bad in ("t", "=3", "mystery=1"):
        with pytest.raises(ConfigurationError):
            parse_override(bad)


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
        "run", "scenarios/n4.json", "--override", "t=2",
        "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert "n >= 3t+1" in capsys.readouterr().err


def test_run_rejects_unknown_override(tmp_path):
    assert main([
        "run", "scenarios/n4.json", "--override", "bogus=1",
        "--out-dir", str(tmp_path),
    ]) == 2


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


def test_sweep_quorum_grid_needs_q(tmp_path):
    assert main([
        "sweep", "--alg", "alg2", "--n", "7", "--t", "2",
        "--trials", "2", "--out-dir", str(tmp_path),
    ]) == 2
    assert main([
        "sweep", "--alg", "alg2", "--n", "7", "--t", "2", "--q", "3..4",
        "--trials", "2", "--out-dir", str(tmp_path),
    ]) == 0


def test_replay_round_trips_a_case(tmp_path):
    from codedbft.sim import random_script, serialize_case

    config = build_config({"l_bits": 72, "d_bits": 24, "seed": 11})
    case = tmp_path / "case.json"
    case.write_text(serialize_case(config, random_script(config, 11)))
    assert main(["replay", str(case)]) == 0


def test_replay_rejects_unknown_config_key(capsys):
    case = Path(__file__).parent / "cases" / "misspelled_config_key.json"
    assert main(["replay", str(case)]) == 2
    assert "broadcast_coeficient" in capsys.readouterr().err


def test_replay_and_run_reject_unknown_script_keys(tmp_path, capsys):
    # "send" for "sends": the rule would otherwise vanish into a quiet script
    case = Path(__file__).parent / "cases" / "misspelled_script_key.json"
    assert main(["replay", str(case)]) == 2
    assert "unknown script keys ['send']" in capsys.readouterr().err
    script = tmp_path / "script.json"
    script.write_text(json.dumps(json.loads(case.read_text())["script"]))
    argv = ["run", "--script", str(script), "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "unknown script keys ['send']" in capsys.readouterr().err


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
    [str(SCENARIOS / "n4.json"), "--override", "seed=5", "--d-bits", "48",
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


def test_replay_loads_a_case_with_the_retired_option(tmp_path):
    from codedbft.sim import random_script, serialize_case

    config = build_config({"l_bits": 72, "d_bits": 24, "seed": 12})
    doc = json.loads(serialize_case(config, random_script(config, 12)))
    doc["config"]["stop_when_no_match_set"] = True
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    assert main(["replay", str(case)]) == 0


@pytest.mark.parametrize(
    "scenario", ["faultfree_alg1_n7.json", "quorum_false_flag.json"]
)
def test_run_writes_the_bytes_of_to_jsonl(scenario, tmp_path, monkeypatch):
    from codedbft import sim

    # several chunks and a partial last one
    monkeypatch.setattr(sim, "_WRITE_CHUNK_LINES", 7)
    assert main(["run", str(SCENARIOS / scenario), "--out-dir", str(tmp_path)]) == 0
    expected = sim.run_execution(*scenario_case(scenario)).transcript.to_jsonl()
    assert expected.count("\n") % 7
    assert (tmp_path / "transcript.jsonl").read_bytes() == expected.encode()


def test_acceptance_quick_passes(capsys):
    code = main(["acceptance", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 9 and "criteria passed" in out
