"""Acceptance checklist: nine numbered criteria, one line each.

Criteria 1-2 pin the fault-free traffic of the n(n-1)/(n-t) protocol to
closed-form bit counts. Criteria 3-5 drive both protocols through random
and crafted adversaries and check agreement, validity, and diagnosis
budgets. Criteria 6-7 cover the quorum variant's q-validity and its
(2n-q)(n-1) per-generation symbol count. Criterion 8 exercises the
erasure codec directly and criterion 9 re-runs serialized cases to prove
byte-identical replay.

Each criterion is a function of no arguments that returns (passed, detail).
`CRITERIA` lists them with their titles and wall-time budgets, and
`run_criterion` times one, applies its budget and renders its line. The
heavyweight random suite is built once per process and shared by
criteria 3, 4, and 9.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from typing import NamedTuple

from .cli import build_config, sweep_layout
from .consensus import code_dimension, episode_bound, generation_symbols
from .rs import (
    CodeParams,
    decode,
    encode,
    min_distance_bruteforce,
    reconstruct_position,
)
from .scripts import crafted_cases
from .sim import (
    ALG1,
    ALG2,
    AdversaryScript,
    ExecutionConfig,
    OUTCOME_DECIDED,
    OUTCOME_DIAGNOSED,
    OUTCOME_TERMINATED,
    check_complexity,
    random_inputs,
    random_script,
    replay_identical,
    run_execution,
)


# ------------------------------------------------------ correctness suite


class SuiteRun(NamedTuple):
    """One finished execution, trimmed to what later criteria inspect."""

    label: str
    config: ExecutionConfig
    script: AdversaryScript
    verdict: str
    diagnosis_count: int
    fired_rules: frozenset[str]
    expected_rules: frozenset[str] | None  # None exactly for random runs


def _execute(
    label: str,
    config: ExecutionConfig,
    script: AdversaryScript,
    expected_rules: frozenset[str] | None = None,
) -> SuiteRun:
    result = run_execution(config, script)
    fired = frozenset(
        event["rule"]
        for kind in ("EDGE_REMOVED", "CONVICTED")
        for event in result.transcript.of_type(kind)
    )
    return SuiteRun(
        label, config, script, result.verdict, result.diagnosis_count,
        fired, expected_rules,
    )


def _suite_config(
    algorithm: str, n: int, t: int, q: int | None, seed: int, style: int
) -> ExecutionConfig:
    """Three-generation config with the inputs of sweep style `style`."""
    k = code_dimension(n, t, q)
    return build_config({
        "algorithm": algorithm, "n": n, "t": t, "q": q, "l_bits": 8 * k * 3,
        "d_bits": 8 * k, "seed": seed, "inputs": sweep_layout(style, n, t),
    })


@functools.cache
def correctness_suite() -> tuple[SuiteRun, ...]:
    """Random plus crafted adversaries for (n,t) in {(4,1),(7,2)}."""
    runs: list[SuiteRun] = []
    for n, t in ((4, 1), (7, 2)):
        q_options = list(range(t + 1, n - t + 1))
        for i in range(500):
            seed = 100_000 * n + i
            if i % 2 == 0:
                algorithm, q = ALG1, None
            else:
                algorithm, q = ALG2, q_options[(i // 2) % len(q_options)]
            config = _suite_config(algorithm, n, t, q, seed, style=i % 3)
            runs.append(_execute(
                f"random {algorithm} n={n} t={t} seed={seed}",
                config, random_script(config, seed),
            ))
        for algorithm, q in [(ALG1, None)] + [(ALG2, q) for q in q_options]:
            # crafted builders assume the shared-prefix worst-case layout
            style = 0 if algorithm == ALG1 else 1
            config = _suite_config(algorithm, n, t, q, 97 * n + (q or 0), style)
            for case in crafted_cases(config):
                runs.append(_execute(
                    f"crafted {case.name} {algorithm} n={n} t={t} q={q}",
                    config, case.script, expected_rules=case.expected_rules,
                ))
    return tuple(runs)


# -------------------------------------------------------------- criteria


def criterion_1() -> tuple[bool, str]:
    points = (((4, 1, 2400, 240), 9600), ((7, 2, 8400, 840), 70560))
    ok, parts = True, []
    for (n, t, l_bits, d_bits), want in points:
        config = build_config(
            {"n": n, "t": t, "l_bits": l_bits, "d_bits": d_bits, "seed": 1}
        )
        result = run_execution(config, AdversaryScript())
        report = check_complexity(result)
        good = (
            result.passed
            and report.data_bits == want
            and report.data_formula_bits == want
        )
        ok &= good
        parts.append(f"n={n},t={t}: data_bits={report.data_bits} want {want}")
    return ok, "; ".join(parts)


def criterion_2() -> tuple[bool, str]:
    ok, parts = True, []
    for n, t, l_bits, d_points in ((4, 1, 2400, (240, 120)), (7, 2, 8400, (840, 400))):
        per_flag = n * n  # one flag bit charged at n^2 per broadcast
        data_seen = set()
        for d_bits in d_points:
            config = build_config(
                {"n": n, "t": t, "l_bits": l_bits, "d_bits": d_bits, "seed": 2}
            )
            report = check_complexity(run_execution(config, AdversaryScript()))
            generations = l_bits // d_bits
            want = generations * n * per_flag
            ok &= report.overhead_bits == want and report.data_matches_formula
            data_seen.add(report.data_bits)
            parts.append(
                f"n={n},D={d_bits}: overhead={report.overhead_bits} want {want}"
            )
        # halving D doubles overhead but leaves the data volume alone
        ok &= len(data_seen) == 1
    return ok, "; ".join(parts)


def criterion_3() -> tuple[bool, str]:
    runs = correctness_suite()
    failures = [r.label for r in runs if r.verdict != "PASS"]
    rule_misses = [
        r.label for r in runs
        if r.expected_rules is not None
        and not r.expected_rules <= r.fired_rules
    ]
    coverage_ok = True
    parts = []
    for n, t in ((4, 1), (7, 2)):
        of_n = [r for r in runs if r.config.n == n]
        craft = sum(r.expected_rules is not None for r in of_n)
        coverage_ok &= craft >= 8
        parts.append(f"n={n}: {len(of_n) - craft} random + {craft} crafted")
    ok = not failures and not rule_misses and coverage_ok
    parts.append(f"failures={len(failures)} rule-misses={len(rule_misses)}")
    if failures:
        parts.append("first failure: " + failures[0])
    if rule_misses:
        parts.append("first rule miss: " + rule_misses[0])
    return ok, "; ".join(parts)


def criterion_4() -> tuple[bool, str]:
    worst: dict[tuple[str, int, int], int] = {}
    for r in correctness_suite():
        key = (r.config.algorithm, r.config.t, episode_bound(r.config.t, r.config.q))
        worst[key] = max(worst.get(key, 0), r.diagnosis_count)
    ok = all(count <= bound for (_, _, bound), count in worst.items())
    parts = [
        f"{alg} t={t}: max {count} of {bound}"
        for (alg, t, bound), count in sorted(worst.items())
    ]
    return ok, "; ".join(parts)


def criterion_5() -> tuple[bool, str]:
    # alg1 at the command line defaults: n=4, t=1, L=2400
    config = build_config(
        {"inputs": {"generator": "split"}, "seed": 5, "d_bits": 240}
    )
    result = run_execution(config, AdversaryScript())
    kinds = {o["kind"] for o in result.outcomes}
    zero = bytes(config.padded_bytes)
    outputs = set(result.outputs.values())
    ok = result.passed and kinds == {OUTCOME_TERMINATED} and outputs == {zero}
    return ok, (
        f"verdict={result.verdict} kinds={sorted(kinds)}"
        f" outputs all zero: {outputs == {zero}}"
    )


def _q_validity_problems(
    config: ExecutionConfig, script: AdversaryScript
) -> list[str]:
    """Outcome checks for a run where >= q fault-free processors share."""
    result = run_execution(config, script)
    label = f"q={config.q} seed={config.seed}"
    problems = []
    # the judge fails a decided block that is no fault-free input, or that
    # is not the shared block when q is a majority
    if not result.passed:
        problems.append(f"{label}: verdict {result.verdict}")
    problems.extend(
        f"{label} g{o['g']}: unexpected outcome {o['kind']}"
        for o in result.outcomes
        if o["kind"] not in (OUTCOME_DECIDED, OUTCOME_DIAGNOSED)
    )
    return problems


def criterion_6() -> tuple[bool, str]:
    n, t = 7, 2
    cases: list[tuple[ExecutionConfig, AdversaryScript]] = []
    for q in (3, 4, 5):
        l_bits = 8 * q * 3
        base = build_config({
            "algorithm": ALG2, "n": n, "t": t, "q": q, "l_bits": l_bits,
            "d_bits": 8 * q, "seed": 60 + q,
            "inputs": {"generator": "shared-prefix", "sharers": n - t},
        })
        cases.extend((base, case.script) for case in crafted_cases(base))
        for i in range(40):
            seed = 600 + 100 * q + i
            rng = random.Random(seed)
            # sharers are a prefix of length >= q; faults sit at 6 and 7,
            # so at least q sharers are fault-free in every layout
            m = q + (i % (n - q + 1))
            inputs = random_inputs(rng, n, l_bits, sharers=range(1, m + 1))
            config = ExecutionConfig(
                algorithm=ALG2, n=n, t=t, q=q,
                l_bits=l_bits, d_bits=8 * q, inputs=inputs, seed=seed,
            )
            chosen = sorted(rng.sample((6, 7), rng.randint(1, t)))
            cases.append((config, random_script(config, seed, faulty=chosen)))
    problems = [p for case in cases for p in _q_validity_problems(*case)]
    detail = f"{len(cases)} runs over q in (3,4,5); problems={len(problems)}"
    if problems:
        detail += "; first: " + problems[0]
    return not problems, detail


def criterion_7() -> tuple[bool, str]:
    n, t = 7, 2
    ok, parts = True, []
    for q in (3, 4, 5):
        config = build_config({
            "algorithm": ALG2, "n": n, "t": t, "q": q, "l_bits": 8 * q * 4,
            "d_bits": 8 * q, "seed": 70 + q,
            "inputs": {"generator": "shared-prefix", "sharers": q},
        })
        result = run_execution(config, AdversaryScript())
        report = check_complexity(result)
        want = generation_symbols(n, q)
        per_gen = report.alg2_symbols_per_generation
        good = (
            result.passed
            and len(per_gen) == config.generations
            and all(count == want for count in per_gen.values())
        )
        ok &= good
        seen = sorted(set(per_gen.values()))
        parts.append(f"q={q}: per-generation symbols {seen} want [{want}]")
    return ok, "; ".join(parts)


def criterion_8() -> tuple[bool, str]:
    # lane w of the two data symbols is word w (byte lanes are independent codewords)
    words = 1 << 16
    params = CodeParams(4, 2, words)
    data = b"".join(bytes([hi]) * 256 for hi in range(256)) + bytes(range(256)) * 256
    vec = encode(params, data)
    for erased in [(), *itertools.combinations(range(1, 5), 2)]:
        trimmed = list(vec)
        for pos in erased:
            trimmed[pos - 1] = None
        got = decode(params, trimmed)
        if got != data:
            lane = next(i for i in range(2 * words) if got[i] != data[i]) % words
            return False, f"round-trip failed at {lane:04x} minus {erased}"

    # every (n, k) the brute force accepts for n <= 7
    distance_ok = all(
        min_distance_bruteforce(CodeParams(n, k)) == n - k + 1
        for n in range(2, 8)
        for k in range(1, min(n, 3) + 1)
    )

    rng = random.Random(8)
    trials = 1000
    recon_ok = True
    for _ in range(trials):
        n = rng.randint(2, 7)
        k = rng.randint(1, n - 1)
        p = CodeParams(n, k, rng.choice((1, 2, 3)))
        vec = encode(p, rng.randbytes(p.block_bytes))
        target = rng.randint(1, n)
        sources = rng.sample([s for s in range(1, n + 1) if s != target], k)
        recon_ok &= reconstruct_position(p, vec, target, sources) == vec[target - 1]

    ok = distance_ok and recon_ok
    return ok, (
        f"{words} words round-trip whole and under 6 erasure patterns;"
        f" distance table {'ok' if distance_ok else 'WRONG'};"
        f" {trials} reconstructions {'ok' if recon_ok else 'WRONG'}"
    )


def criterion_9() -> tuple[bool, str]:
    sample = 20
    adversarial = [r for r in correctness_suite() if r.script.faulty]
    stride = max(1, len(adversarial) // sample)
    picked = adversarial[::stride][:sample]
    bad = [r.label for r in picked if not replay_identical(r.config, r.script)[1]]
    ok = len(picked) == sample and not bad
    detail = f"{len(picked)} cases replayed; mismatches={len(bad)}"
    if bad:
        detail += "; first: " + bad[0]
    return ok, detail


# --------------------------------------------------------------- driver

# number -> (title, wall-time budget in seconds or None, criterion);
# criterion 3's budget covers building the suite it shares with 4 and 9
CRITERIA = {
    1: ("fault-free baseline traffic is bit exact", 1.0, criterion_1),
    2: ("broadcast overhead identity and block-size scaling", None, criterion_2),
    3: ("random and crafted adversaries never break the properties", 120.0,
        criterion_3),
    4: ("diagnosis episode counts stay within their bounds", None, criterion_4),
    5: ("split inputs terminate on identical default outputs", None, criterion_5),
    6: ("q-validity holds whenever q fault-free processors agree", None,
        criterion_6),
    7: ("fault-free quorum-variant symbol counts are exact", None, criterion_7),
    8: ("codec round-trip, minimum distance, and reconstruction", 30.0,
        criterion_8),
    9: ("serialized cases replay byte-identically", None, criterion_9),
}


def run_criterion(number: int) -> tuple[bool, str]:
    """Run one criterion under its budget: (passed, its printed line)."""
    title, budget, criterion = CRITERIA[number]
    start = time.perf_counter()
    passed, detail = criterion()
    seconds = time.perf_counter() - start
    if budget is not None:
        passed &= seconds < budget
        detail += f"; {seconds:.2f}s of {budget:g}s budget"
    status = "PASS" if passed else "FAIL"
    return passed, f"criterion {number} {status} ({seconds:.2f}s) {title}: {detail}"


def run_all() -> list[tuple[bool, str]]:
    return [run_criterion(number) for number in CRITERIA]
