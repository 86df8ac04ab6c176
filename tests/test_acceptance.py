"""Acceptance gate: one test and one printed line per criterion.

Each test goes through `acceptance.run_criterion`, the path `codedbft
acceptance` takes, so a criterion over its wall-time budget fails here
too. The heavyweight random suite is built once per process and shared
by the criteria that inspect it.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

from codedbft import acceptance, rs
from codedbft.consensus import ALG1, ALG2, OUTCOME_DEFAULT, episode_bound
from codedbft.sim import AdversaryScript

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def passes(capsys, number):
    passed, line = acceptance.run_criterion(number)
    with capsys.disabled():
        print("\n" + line)
    assert passed, line


def test_criterion_1_fault_free_traffic(capsys):
    passes(capsys, 1)


def test_criterion_2_overhead_identity(capsys):
    passes(capsys, 2)


def test_criterion_3_adversarial_battery(capsys):
    passes(capsys, 3)


def test_criterion_4_diagnosis_bounds(capsys):
    passes(capsys, 4)


def test_the_benchmark_sweep_check_keeps_the_same_episode_bound(monkeypatch):
    # perfbench writes its own copy of the bound; stand-in runs at the
    # bound pass its check and one episode more fails it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for t in range(85):
        for algorithm, q in ((ALG1, None), (ALG2, t + 1)):
            bound = episode_bound(t, q)
            config = SimpleNamespace(algorithm=algorithm, t=t, q=q, seed=0)
            for count in (bound, bound + 1):
                result = SimpleNamespace(passed=True, config=config, diagnosis_count=count)
                problems = workloads.check_sweep(workloads.Run(result, None, None))
                assert problems == (
                    [] if count == bound else [f"seed 0: {count} diagnoses > {bound}"]
                ), (algorithm, t)


def test_criterion_5_split_inputs_default(capsys):
    passes(capsys, 5)


def test_criterion_6_q_validity(capsys):
    passes(capsys, 6)


def test_criterion_7_quorum_symbol_counts(capsys):
    passes(capsys, 7)


def test_criterion_8_codec(capsys):
    passes(capsys, 8)


def test_criterion_9_replay(capsys):
    passes(capsys, 9)


def test_a_criterion_over_its_budget_fails(monkeypatch):
    title, _, criterion = acceptance.CRITERIA[1]
    monkeypatch.setitem(acceptance.CRITERIA, 1, (title, 0, criterion))
    passed, line = acceptance.run_criterion(1)
    assert not passed
    assert line.startswith("criterion 1 FAIL (") and line.endswith("s of 0s budget")


def suite_run(label, verdict="PASS", expected_rules=None):
    """A stand-in suite run of processor 1 faulty at n=4."""
    return acceptance.SuiteRun(label, SimpleNamespace(n=4), AdversaryScript([1]),
                               verdict, 0, frozenset(), expected_rules)


def flipped_decode(params, vec):
    """`decode` with one bit of lane 0x1234 of the second data symbol flipped."""
    got = bytearray(rs.decode(params, vec))
    got[(1 << 16) + 0x1234] ^= 1
    return bytes(got)


# criterion -> (stand-ins for the module's names, the detail its line reports)
FAILING = {
    3: ({"correctness_suite": lambda: (
            suite_run("run a", verdict="VERDICT_FAIL"),
            suite_run("run b", expected_rules=frozenset({"a rule"})))},
        "failures=1 rule-misses=1; first failure: run a; first rule miss: run b"),
    6: ({"run_execution": lambda config, script: SimpleNamespace(
            passed=False, verdict="VERDICT_FAIL", outcomes=[{"g": 1, "kind": OUTCOME_DEFAULT}])},
        "problems=282; first: q=3 seed=63: verdict VERDICT_FAIL"),
    8: ({"decode": flipped_decode}, "round-trip failed at 1234 minus ()"),
    9: ({"correctness_suite": lambda: (suite_run("run a"),),
         "replay_identical": lambda config, script: ("PASS", False)},
        "1 cases replayed; mismatches=1; first: run a"),
}


@pytest.mark.parametrize("number", sorted(FAILING))
def test_a_failing_criterion_names_its_first_failure(number, monkeypatch):
    stand_ins, ending = FAILING[number]
    for name, stand_in in stand_ins.items():
        monkeypatch.setattr(acceptance, name, stand_in)
    passed, line = acceptance.run_criterion(number)
    assert not passed and f"criterion {number} FAIL (" in line and ending in line


def test_run_all_passes_every_criterion_in_order():
    results = acceptance.run_all()
    lines = [line for _, line in results]
    assert len(results) == 9, lines
    for number, (passed, line) in enumerate(results, 1):
        assert passed and line.startswith(f"criterion {number} PASS ("), line
