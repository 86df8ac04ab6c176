"""Acceptance gate: one test and one printed line per criterion.

Each test goes through `acceptance.run_criterion`, the path `codedbft
acceptance` takes, so a criterion over its wall-time budget fails here
too. The heavyweight random suite is built once per process and shared
by the criteria that inspect it.
"""

from codedbft import acceptance


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
