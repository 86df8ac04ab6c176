"""Every crafted adversary passes and trips exactly its targeted rule."""

import random

import pytest

from codedbft.consensus import code_dimension
from codedbft.scripts import crafted_cases
from codedbft.sim import (
    ALG1,
    ALG2,
    ExecutionConfig,
    random_inputs,
    run_execution,
)

# the (algorithm, n, t, q) grid the builders cover
COMBOS = [
    (ALG1, 4, 1, None),
    (ALG1, 7, 2, None),
    (ALG2, 4, 1, 2),
    (ALG2, 4, 1, 3),
    (ALG2, 7, 2, 3),
    (ALG2, 7, 2, 4),
    (ALG2, 7, 2, 5),
]


def layout_config(algorithm, n, t, q):
    """Three generations on the layout the builders assume."""
    k = code_dimension(n, t, q)
    l_bits = 8 * k * 3
    rng = random.Random(97 * n + (q or 0))
    if algorithm == ALG1:
        inputs = random_inputs(rng, n, l_bits)
    else:
        inputs = random_inputs(rng, n, l_bits, sharers=range(1, n - t + 1))
    return ExecutionConfig(
        algorithm=algorithm, n=n, t=t, q=q,
        l_bits=l_bits, d_bits=8 * k, inputs=inputs, seed=rng.randrange(1000),
    )


def fired_rules(result):
    return {
        event["rule"]
        for kind in ("EDGE_REMOVED", "CONVICTED")
        for event in result.transcript.of_type(kind)
    }


@pytest.mark.parametrize("algorithm,n,t,q", COMBOS)
def test_crafted_cases_pass_and_fire_their_rule(algorithm, n, t, q):
    config = layout_config(algorithm, n, t, q)
    cases = crafted_cases(config)
    assert len(cases) >= 7
    names = [case.name for case in cases]
    assert len(names) == len(set(names))
    for case in cases:
        result = run_execution(config, case.script)
        assert result.passed, f"{case.name}: {result.violations}"
        missing = case.expected_rules - fired_rules(result)
        assert not missing, f"{case.name} never fired {missing}"


def test_registry_contents_by_protocol():
    alg1_small = {c.name for c in crafted_cases(layout_config(ALG1, 4, 1, None))}
    alg1_large = {c.name for c in crafted_cases(layout_config(ALG1, 7, 2, None))}
    alg2 = {c.name for c in crafted_cases(layout_config(ALG2, 7, 2, 4))}
    assert "noncodeword-coded-claim" in alg1_small
    assert "helper-corruption" in alg1_large - alg1_small  # needs t >= 2
    assert "wrong-reconstruction-claim" in alg2
    assert "noncodeword-coded-claim" not in alg2
    shared = {
        "corrupt-single-symbol", "honest-looking-equivocation",
        "false-detected-flag", "broadcast-lie-received-claim",
        "silent-claims", "total-silence",
    }
    assert shared <= alg1_small and shared <= alg1_large and shared <= alg2


def test_two_fault_helper_case_counts_two_episodes():
    config = layout_config(ALG1, 7, 2, None)
    case = next(
        c for c in crafted_cases(config) if c.name == "helper-corruption"
    )
    result = run_execution(config, case.script)
    assert result.passed
    assert result.diagnosis_count == 2  # one per corrupted generation
