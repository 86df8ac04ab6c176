"""Workloads of the codedbft benchmark.

Each workload turns a seed into a fixed list of (config, script) cases,
names the timed step one execution takes, and checks every result. The
simulator only ever sees the generated configs and scripts.

All calls into the program go through module attributes
(`sim.run_execution`, not a local alias), so that the tracer in
`spans.py` can wrap them where the program itself looks them up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from codedbft import cli, sim

Case = tuple[sim.ExecutionConfig, sim.AdversaryScript]

# two rounds of the three input styles at each of the four sweep points
SWEEP_BATCH = 2 * 3 * 4


@dataclass
class Run:
    """What one timed execution produced."""

    result: sim.ExecutionResult
    report: sim.ComplexityReport | None
    jsonl: str | None


@dataclass(frozen=True)
class Workload:
    """One named input set: how to build it, run it and check it.

    `serialize` adds `check_complexity` and `Transcript.to_jsonl()` to
    the timed step, as `codedbft run` does; without it the step is what
    `codedbft sweep` does per case (execute only). Throughput is taken
    over batches of `batch` consecutive cases, which must divide the
    case list.
    """

    name: str
    build: Callable[[int], list[Case]]
    check: Callable[[Run], list[str]]
    serialize: bool
    batch: int = 1

    def execute(self, case: Case) -> Run:
        """The timed step of one execution."""
        result = sim.run_execution(*case)
        if not self.serialize:
            return Run(result, None, None)
        report = sim.check_complexity(result)
        return Run(result, report, result.transcript.to_jsonl())


def _verdict_problems(run: Run) -> list[str]:
    result = run.result
    if result.passed:
        return []
    return [f"seed {result.config.seed}: verdict {result.verdict}: {result.violations}"]


# ------------------------------------------------------- alg1, long value


def alg1_cases(seed: int, n: int = 7, t: int = 2, l_bits: int = 64 * 1024 * 8) -> list[Case]:
    """One fault-free alg1 scenario with identical inputs and default D."""
    data = {
        "algorithm": sim.ALG1, "n": n, "t": t, "l_bits": l_bits, "seed": seed,
        "inputs": {"generator": "identical"},
    }
    config = cli.build_config(data)
    return [(config, cli.build_script(data, config))]


def check_alg1(run: Run) -> list[str]:
    problems = _verdict_problems(run)
    result = run.result
    value = bytes.fromhex(result.config.inputs[0])
    if any(out[: len(value)] != value for out in result.outputs.values()):
        problems.append("a fault-free output differs from the shared input")
    if any(o["kind"] != sim.OUTCOME_DECIDED for o in result.outcomes):
        problems.append("a generation ended without DECIDED")
    if not run.report.data_matches_formula:
        problems.append(
            f"data bits {run.report.data_bits} != formula {run.report.data_formula_bits}"
        )
    return problems


# ----------------------------------------------- random-adversary sweep


def sweep_cases(seed: int, trials: int = 150, n: int = 7, t: int = 2) -> list[Case]:
    """The case mix of `codedbft sweep`, for alg1 and alg2 at q = 3, 4, 5.

    Each parameter point gets `trials` cases of ten one-unit
    generations; the three input styles of `cmd_sweep` rotate and every
    case has its own `random_script` adversary. Cases are ordered trial
    by trial, so every run of SWEEP_BATCH consecutive cases holds the
    same mix of points and styles.
    """
    points = []
    for algorithm, q in ((sim.ALG1, None), (sim.ALG2, 3), (sim.ALG2, 4), (sim.ALG2, 5)):
        l_bits = 8 * (q if q is not None else n - t) * 10
        points.append((algorithm, q, l_bits, cli.choose_d(l_bits, n, t, q)))
    base = seed * 100_000
    cases = []
    for trial in range(trials):
        case_seed = base + trial
        for algorithm, q, l_bits, d_bits in points:
            rng = random.Random(case_seed)
            style = trial % 3
            if style == 0:
                inputs = sim.random_inputs(rng, n, l_bits)
            elif style == 1:
                share = max(q or 0, n - t)
                inputs = sim.random_inputs(rng, n, l_bits, sharers=range(1, share + 1))
            else:
                inputs = tuple(rng.randbytes(l_bits // 8).hex() for _ in range(n))
            config = sim.ExecutionConfig(
                algorithm=algorithm, n=n, t=t, q=q,
                l_bits=l_bits, d_bits=d_bits, inputs=inputs, seed=case_seed,
            )
            cases.append((config, sim.random_script(config, case_seed)))
    return cases


def check_sweep(run: Run) -> list[str]:
    problems = _verdict_problems(run)
    result = run.result
    t = result.config.t
    # acceptance criterion 4: alg1 may spend t more episodes than alg2
    bound = t * (t + 1) + (t if result.config.algorithm == sim.ALG1 else 0)
    if result.diagnosis_count > bound:
        problems.append(
            f"seed {result.config.seed}: {result.diagnosis_count} diagnoses > {bound}"
        )
    return problems


# ------------------------------------------------ alg2 with no quorum


def alg2_nomatch_cases(
    seed: int, n: int = 19, t: int = 6, q: int = 7, l_bits: int = 4800
) -> list[Case]:
    """Fault-free alg2 with every input distinct, so no q-clique exists."""
    data = {
        "algorithm": sim.ALG2, "n": n, "t": t, "q": q, "l_bits": l_bits,
        "seed": seed, "inputs": {"generator": "random"},
    }
    config = cli.build_config(data)
    return [(config, cli.build_script(data, config))]


def check_alg2_nomatch(run: Run) -> list[str]:
    problems = _verdict_problems(run)
    if any(o["kind"] != sim.OUTCOME_DEFAULT for o in run.result.outcomes):
        problems.append("a generation found a match set")
    if not run.report.alg2_within_bound:
        problems.append("alg2 symbols per generation exceed the bound")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("alg1-n7-64k", alg1_cases, check_alg1, serialize=True),
        Workload("sweep-adv-n7", sweep_cases, check_sweep, serialize=False,
                 batch=SWEEP_BATCH),
        Workload("alg2-nomatch-n19", alg2_nomatch_cases, check_alg2_nomatch, serialize=True),
    )
}
