"""Acceptance checklist: nine numbered criteria, one line each.

Criteria 1-2 pin the fault-free traffic of the n(n-1)/(n-t) protocol to
closed-form bit counts. Criteria 3-5 drive both protocols through random
and crafted adversaries and check agreement, validity, and diagnosis
budgets. Criteria 6-7 cover the quorum variant's q-validity and its
(2n-q)(n-1) per-generation symbol count. Criterion 8 exercises the
erasure codec directly and criterion 9 re-runs serialized cases to prove
byte-identical replay.

`run_all` executes everything and reports per-criterion pass/fail lines;
the heavyweight random suite is built once and shared by criteria 3, 4,
and 9.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .cli import build_config, sweep_layout
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

_TITLES = {
    1: "fault-free baseline traffic is bit exact",
    2: "broadcast overhead identity and block-size scaling",
    3: "random and crafted adversaries never break the properties",
    4: "diagnosis episode counts stay within their bounds",
    5: "split inputs terminate on identical default outputs",
    6: "q-validity holds whenever q fault-free processors agree",
    7: "fault-free quorum-variant symbol counts are exact",
    8: "codec round-trip, minimum distance, and reconstruction",
    9: "serialized cases replay byte-identically",
}

# per-protocol ceiling on diagnosis episodes in one execution
def _diagnosis_bound(algorithm: str, t: int) -> int:
    return t + t * (t + 1) if algorithm == ALG1 else t * (t + 1)


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.number} {status} ({self.seconds:.2f}s)"
            f" {self.title}: {self.detail}"
        )


@dataclass
class AcceptanceReport:
    results: list[CriterionResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def summary(self) -> str:
        passed = sum(1 for r in self.results if r.passed)
        total = sum(r.seconds for r in self.results)
        return f"{passed}/{len(self.results)} criteria passed in {total:.1f}s"


# ------------------------------------------------------ correctness suite


@dataclass
class SuiteRun:
    """One finished execution, trimmed to what later criteria inspect."""

    label: str
    config: ExecutionConfig
    script: AdversaryScript
    verdict: str
    diagnosis_count: int
    fired_rules: frozenset[str]
    expected_rules: frozenset[str] | None
    crafted: bool


@dataclass
class Suite:
    runs: list[SuiteRun]
    build_seconds: float


def _execute(
    label: str,
    config: ExecutionConfig,
    script: AdversaryScript,
    expected_rules: frozenset[str] | None = None,
    crafted: bool = False,
) -> SuiteRun:
    result = run_execution(config, script)
    fired = frozenset(
        event["rule"]
        for kind in ("EDGE_REMOVED", "CONVICTED")
        for event in result.transcript.of_type(kind)
    )
    return SuiteRun(
        label=label,
        config=config,
        script=script,
        verdict=result.verdict,
        diagnosis_count=result.diagnosis_count,
        fired_rules=fired,
        expected_rules=expected_rules,
        crafted=crafted,
    )


def _suite_config(
    algorithm: str, n: int, t: int, q: int | None, seed: int, style: int
) -> ExecutionConfig:
    """Three-generation config with the inputs of sweep style `style`."""
    k = q if q is not None else n - t
    return build_config({
        "algorithm": algorithm, "n": n, "t": t, "q": q, "l_bits": 8 * k * 3,
        "d_bits": 8 * k, "seed": seed, "inputs": sweep_layout(style, n, t, q),
    })


def correctness_suite(quick: bool = False) -> Suite:
    """Random plus crafted adversaries for (n,t) in {(4,1),(7,2)}."""
    start = time.perf_counter()
    runs: list[SuiteRun] = []
    for n, t in ((4, 1), (7, 2)):
        target = 60 if quick else 500
        q_options = list(range(t + 1, n - t + 1))
        for i in range(target):
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
                    config, case.script,
                    expected_rules=case.expected_rules, crafted=True,
                ))
    return Suite(runs=runs, build_seconds=time.perf_counter() - start)


# -------------------------------------------------------------- criteria


def criterion_1() -> tuple[bool, str]:
    start = time.perf_counter()
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
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    parts.append(f"{elapsed:.2f}s of 1s budget")
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


def criterion_3(suite: Suite) -> tuple[bool, str]:
    failures = [r.label for r in suite.runs if r.verdict != "PASS"]
    rule_misses = [
        r.label for r in suite.runs
        if r.expected_rules is not None
        and not r.expected_rules <= r.fired_rules
    ]
    coverage_ok = True
    parts = []
    for n, t in ((4, 1), (7, 2)):
        rand = sum(
            1 for r in suite.runs if not r.crafted and r.config.n == n
        )
        craft = sum(1 for r in suite.runs if r.crafted and r.config.n == n)
        coverage_ok &= craft >= 8
        parts.append(f"n={n}: {rand} random + {craft} crafted")
    ok = (
        not failures
        and not rule_misses
        and coverage_ok
        and suite.build_seconds < 120.0
    )
    parts.append(
        f"failures={len(failures)} rule-misses={len(rule_misses)}"
        f" built in {suite.build_seconds:.1f}s of 120s budget"
    )
    if failures:
        parts.append("first failure: " + failures[0])
    if rule_misses:
        parts.append("first rule miss: " + rule_misses[0])
    return ok, "; ".join(parts)


def criterion_4(suite: Suite) -> tuple[bool, str]:
    ok = True
    worst: dict[tuple[str, int], int] = {}
    for r in suite.runs:
        key = (r.config.algorithm, r.config.t)
        worst[key] = max(worst.get(key, 0), r.diagnosis_count)
        ok &= r.diagnosis_count <= _diagnosis_bound(*key)
    parts = [
        f"{alg} t={t}: max {count} of {_diagnosis_bound(alg, t)}"
        for (alg, t), count in sorted(worst.items())
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
    if not result.passed:
        problems.append(f"{label}: verdict {result.verdict}")
    faulty = set(script.faulty)
    fault_free = [p for p in range(1, config.n + 1) if p not in faulty]
    for outcome in result.outcomes:
        g, kind, value = outcome["g"], outcome["kind"], outcome["value"]
        if kind not in (OUTCOME_DECIDED, OUTCOME_DIAGNOSED):
            problems.append(f"{label} g{g}: unexpected outcome {kind}")
            continue
        legal = {config.input_block(p, g).hex() for p in fault_free}
        if value not in legal:
            problems.append(f"{label} g{g}: value outside fault-free inputs")
        elif config.q >= (config.n + 2) // 2 and value != config.input_block(1, g).hex():
            problems.append(f"{label} g{g}: strong quorum, wrong value")
    return problems


def criterion_6(quick: bool = False) -> tuple[bool, str]:
    n, t = 7, 2
    per_q = 10 if quick else 40
    problems: list[str] = []
    checked = 0
    for q in (3, 4, 5):
        l_bits = 8 * q * 3
        base = build_config({
            "algorithm": ALG2, "n": n, "t": t, "q": q, "l_bits": l_bits,
            "d_bits": 8 * q, "seed": 60 + q,
            "inputs": {"generator": "shared-prefix", "sharers": n - t},
        })
        for case in crafted_cases(base):
            problems.extend(_q_validity_problems(base, case.script))
            checked += 1
        for i in range(per_q):
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
            script = random_script(config, seed, faulty=chosen)
            problems.extend(_q_validity_problems(config, script))
            checked += 1
    ok = not problems
    detail = f"{checked} runs over q in (3,4,5); problems={len(problems)}"
    if problems:
        detail += "; first: " + problems[0]
    return ok, detail


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
        want = (2 * n - q) * (n - 1)
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


def criterion_8(quick: bool = False) -> tuple[bool, str]:
    start = time.perf_counter()
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
    trials = 200 if quick else 1000
    recon_ok = True
    for _ in range(trials):
        n = rng.randint(2, 7)
        k = rng.randint(1, n - 1)
        p = CodeParams(n, k, rng.choice((1, 2, 3)))
        vec = encode(p, rng.randbytes(p.block_bytes))
        target = rng.randint(1, n)
        sources = rng.sample([s for s in range(1, n + 1) if s != target], k)
        recon_ok &= reconstruct_position(p, vec, target, sources) == vec[target - 1]

    elapsed = time.perf_counter() - start
    ok = distance_ok and recon_ok and elapsed < 30.0
    return ok, (
        f"{words} words round-trip whole and under 6 erasure patterns;"
        f" distance table {'ok' if distance_ok else 'WRONG'};"
        f" {trials} reconstructions {'ok' if recon_ok else 'WRONG'};"
        f" {elapsed:.1f}s of 30s budget"
    )


def criterion_9(suite: Suite, quick: bool = False) -> tuple[bool, str]:
    sample = 5 if quick else 20
    adversarial = [r for r in suite.runs if r.script.faulty]
    stride = max(1, len(adversarial) // sample)
    picked = adversarial[::stride][:sample]
    bad = [r.label for r in picked if not replay_identical(r.config, r.script)]
    ok = len(picked) == sample and not bad
    detail = f"{len(picked)} cases replayed; mismatches={len(bad)}"
    if bad:
        detail += "; first: " + bad[0]
    return ok, detail


# --------------------------------------------------------------- driver


def run_all(quick: bool = False) -> AcceptanceReport:
    results: list[CriterionResult] = []

    def record(number: int, check) -> None:
        start = time.perf_counter()
        passed, detail = check()
        results.append(CriterionResult(
            number, _TITLES[number], passed, detail,
            time.perf_counter() - start,
        ))

    record(1, criterion_1)
    record(2, criterion_2)
    suite: Suite | None = None

    def build_and_check_3() -> tuple[bool, str]:
        nonlocal suite
        suite = correctness_suite(quick=quick)
        return criterion_3(suite)

    record(3, build_and_check_3)
    record(4, lambda: criterion_4(suite))
    record(5, criterion_5)
    record(6, lambda: criterion_6(quick=quick))
    record(7, criterion_7)
    record(8, lambda: criterion_8(quick=quick))
    record(9, lambda: criterion_9(suite, quick=quick))
    return AcceptanceReport(results)
