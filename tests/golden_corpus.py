"""The fixed case corpus whose transcript hashes golden_transcripts.json freezes.

The corpus is every scenarios/*.json file, run the way `codedbft run`
runs it, plus 48 random-adversary sweep cases at n=7, t=2: alg1 and alg2
at q=3, 4, 5, each with nine short cases (1-byte symbols) and three
three-generation cases with 64-byte symbols, the input styles rotating
as in `codedbft sweep`. It also holds every crafted adversary of
`codedbft.scripts` at n=7, t=2 with three one-unit generations, for alg1
and alg2 at q=3, 4, 5 (29 cases), which reach the diagnosis rules and
the helper wave that random scripts miss. Two more sweep trials at
n=7, t=2 (`EXIT_TRIALS`) end an alg2 generation `DEFAULT` after
diagnosis, the one way out of a generation the cases above never take.
"""

import json
import random
from pathlib import Path

from codedbft import cli
from codedbft.consensus import code_dimension
from codedbft.scripts import crafted_cases
from codedbft.sim import ALG1, ALG2, ExecutionConfig, random_inputs

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

N, T = 7, 2
POINTS = ((ALG1, None), (ALG2, 3), (ALG2, 4), (ALG2, 5))
# (q, trial) of `codedbft sweep --alg alg2 --n 7 --t 2 --q Q` at seed 0: a
# match set is found, diagnosis runs and the decide set comes back empty
EXIT_TRIALS = ((5, 10), (4, 115))


def scenario_case(name: str) -> tuple:
    """Config and script of scenarios/<name>, as `codedbft run` builds them."""
    data = json.loads((SCENARIOS / name).read_text())
    config = cli.build_config(data)
    return config, cli.build_script(data, config)


def corpus_sweeps(algorithm: str, q: int | None) -> list:
    """Short cases from seed 100, then 64-byte-symbol cases from seed 200."""
    k = code_dimension(N, T, q)
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


def crafted_config(algorithm: str, q: int | None) -> ExecutionConfig:
    """Three one-unit generations on the layout the crafted builders assume."""
    k = code_dimension(N, T, q)
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


def exit_cases() -> dict:
    """The `EXIT_TRIALS` sweep runs by their golden key: (config, script)."""
    cases = {}
    for q, trial in EXIT_TRIALS:
        config, script = cli.sweep_cases(ALG2, N, T, [q], trial + 1, 0)[trial]
        cases[case_key(config)] = (config, script)
    return cases


def all_cases() -> dict:
    """Every corpus case by its golden key: (config, script)."""
    cases = {path.name: scenario_case(path.name) for path in SCENARIOS.glob("*.json")}
    for algorithm, q in POINTS:
        for config, script in corpus_sweeps(algorithm, q):
            cases[case_key(config)] = (config, script)
        cases.update(crafted_corpus(algorithm, q))
    cases.update(exit_cases())
    return cases
