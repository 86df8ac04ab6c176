"""Acceptance gate: one test and one printed line per criterion.

Each test goes through `acceptance.run_criterion`, the path `codedbft
acceptance` takes, so a criterion over its wall-time budget fails here
too. The heavyweight random suite is built once per process and shared
by the criteria that inspect it.
"""

from pathlib import Path
from types import SimpleNamespace

from codedbft import acceptance
from codedbft.consensus import ALG1, ALG2, episode_bound

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


def test_run_all_passes_every_criterion_in_order():
    results = acceptance.run_all()
    lines = [line for _, line in results]
    assert len(results) == 9, lines
    for number, (passed, line) in enumerate(results, 1):
        assert passed and line.startswith(f"criterion {number} PASS ("), line
