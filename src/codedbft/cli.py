"""Command line front end for the consensus simulator.

Four subcommands: `run` executes one scenario and writes its transcript,
`sweep` runs batches of randomly scripted adversaries, `acceptance`
executes the acceptance checklist, and `replay` runs a serialized case,
writes it back out, runs the reloaded copy and compares the two
transcripts byte for byte.

Exit codes follow the usual convention: 0 for success, 1 for a run or
sweep that found a violation (or missed an expected outcome), 2 for
configuration errors such as inconsistent parameters or a malformed
scenario file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import shlex
import sys
import time
from pathlib import Path
from typing import Any

from .consensus import code_dimension
from .diagnosis import ConfigurationError
from .scripts import crafted_cases
from .sim import (
    ALG1,
    ALG2,
    AdversaryScript,
    ExecutionConfig,
    check_complexity,
    load_case,
    random_inputs,
    random_script,
    replay_identical,
    require_known_keys,
    run_execution,
    serialize_case,
)

# every config field but the inputs: its flag and its default on the
# command line (d_bits=None is sized by choose_d); broadcast_coefficient
# has no flag, so only scenario files set it
_FIELDS: dict[str, tuple[str | None, Any]] = {
    "algorithm": ("alg", ALG1),
    "n": ("n", 4),
    "t": ("t", 1),
    "q": ("q", ExecutionConfig.q),
    "l_bits": ("l-bits", 2400),
    "d_bits": ("d-bits", None),
    "seed": ("seed", ExecutionConfig.seed),
    "broadcast_coefficient": (None, ExecutionConfig.broadcast_coefficient),
}

# the top-level keys of a scenario file, and the keys of its `expected` block
_SCENARIO_KEYS = (
    *_FIELDS, "inputs", "faulty", "script", "crafted", "expected", "name"
)
_EXPECTED_KEYS = ("verdict", "outcome_kinds", "data_bits", "diagnosis_count")

# the input layouts a sweep rotates through
SWEEP_STYLES = ("identical", "shared-prefix", "random")


def choose_d(l_bits: int, n: int, t: int, q: int | None = None) -> int:
    """Default block size for a value of `l_bits` bits.

    The per-generation broadcast overhead is fixed while the number of
    generations is l_bits/D, so total overhead is minimized near
    D = sqrt(l_bits). Returns the smallest multiple of the 8k-bit block
    unit at or above ceil(sqrt(l_bits)), which fits in l_bits: it is the
    unit if that reaches ceil(sqrt(l_bits)), else below 2 ceil(sqrt(l_bits)).
    """
    k = code_dimension(n, t, q)
    if k < 1:
        raise ConfigurationError(f"code dimension {k} is not positive")
    unit = 8 * k
    if l_bits < unit:
        raise ConfigurationError(
            f"l_bits={l_bits} is smaller than one {unit}-bit block"
        )
    target = math.isqrt(l_bits - 1) + 1
    return unit * -(-target // unit)


# ------------------------------------------------------------- scenarios


def _coerce(key: str, value: Any) -> Any:
    """An integer field takes an int (not a bool) or a decimal string."""
    if key == "algorithm" or type(value) is int:
        return value
    if isinstance(value, str) and value.removeprefix("-").isdecimal():
        return int(value)
    raise ConfigurationError(f"{key} must be an integer, got {value!r}")


def _flag_value(args: argparse.Namespace, flag: str | None) -> Any:
    return getattr(args, flag.replace("-", "_"), None) if flag else None


def flag_overrides(args: argparse.Namespace) -> dict[str, Any]:
    """Config fields given as flags."""
    return {
        name: value
        for name, (flag, _) in _FIELDS.items()
        if (value := _flag_value(args, flag)) is not None
    }


def generate_inputs(layout: Any, n: int, l_bits: int, seed: int) -> tuple[str, ...]:
    """Input values from a scenario: explicit hex list or generator."""
    if isinstance(layout, (list, tuple)):
        return tuple(str(v) for v in layout)
    if layout is None:
        layout = {}
    if not isinstance(layout, dict):
        raise ConfigurationError("inputs must be a list of hex or a generator")
    require_known_keys("inputs", layout, ("generator", "seed", "sharers"))
    rng = random.Random(_coerce("seed", layout.get("seed", seed)))
    kind = layout.get("generator", "identical")
    size = l_bits // 8
    if kind == "identical":
        return random_inputs(rng, n, l_bits)
    if kind == "shared-prefix":
        sharers = _coerce("sharers", layout.get("sharers", n - 1))
        if not 1 <= sharers <= n:
            raise ConfigurationError(f"sharers={sharers} is outside 1..{n}")
        return random_inputs(rng, n, l_bits, sharers=range(1, sharers + 1))
    if kind == "split":
        first, second = rng.randbytes(size).hex(), rng.randbytes(size).hex()
        cut = (n + 1) // 2
        return tuple(first if p <= cut else second for p in range(1, n + 1))
    if kind == "random":
        return tuple(rng.randbytes(size).hex() for _ in range(n))
    raise ConfigurationError(f"unknown input generator {kind!r}")


def sweep_layout(style: int, n: int, t: int) -> dict:
    """Inputs of sweep trial `style`: SWEEP_STYLES in rotation, n - t >= q sharers."""
    return {"generator": SWEEP_STYLES[style % len(SWEEP_STYLES)], "sharers": n - t}


def build_config(data: dict) -> ExecutionConfig:
    """Scenario dictionary (after flags) to a validated config."""
    fields = {
        name: default if data.get(name) is None else _coerce(name, data[name])
        for name, (_, default) in _FIELDS.items()
    }
    if fields["d_bits"] is None:
        # only alg2 codes at dimension q; alg1's q is refused by the config
        q = fields["q"] if fields["algorithm"] == ALG2 else None
        fields["d_bits"] = choose_d(fields["l_bits"], fields["n"], fields["t"], q)
    inputs = generate_inputs(
        data.get("inputs"), fields["n"], fields["l_bits"], fields["seed"]
    )
    return ExecutionConfig(**fields, inputs=inputs)


def build_script(data: dict, config: ExecutionConfig) -> AdversaryScript:
    """Adversary for a scenario: inline script, crafted case, or quiet."""
    if data.get("script") is not None:
        return AdversaryScript.from_jsonable(data["script"])
    if data.get("crafted"):
        name = data["crafted"]
        for case in crafted_cases(config):
            if case.name == name:
                return case.script
        raise ConfigurationError(f"no crafted case named {name!r}")
    faulty = data.get("faulty")
    return AdversaryScript.from_jsonable({"faulty": [] if faulty is None else faulty})


def read_expected(block: Any) -> dict:
    """A scenario's `expected` block, its values checked before the run."""
    expected = dict(require_known_keys("expected", block or {}, _EXPECTED_KEYS))
    if "outcome_kinds" in expected:
        kinds = expected["outcome_kinds"]
        if not isinstance(kinds, list) or not all(isinstance(k, str) for k in kinds):
            raise ConfigurationError("expected outcome_kinds must be a list of strings")
        expected["outcome_kinds"] = sorted(kinds)
    for key in ("data_bits", "diagnosis_count"):
        if key in expected:
            expected[key] = _coerce(key, expected[key])
    return expected


def check_expected(result, report, expected: dict) -> list[str]:
    """Mismatches between a finished run and a `read_expected` block."""
    got = {
        "verdict": result.verdict,
        "outcome_kinds": sorted({o["kind"] for o in result.outcomes}),
        "data_bits": report.data_bits,
        "diagnosis_count": result.diagnosis_count,
    }
    return [
        f"{key.replace('_', ' ')} {got[key]} != expected {expected[key]}"
        for key in _EXPECTED_KEYS
        if key in expected and got[key] != expected[key]
    ]


# ----------------------------------------------------------- subcommands


def _repro_line(args: argparse.Namespace, config: ExecutionConfig) -> str:
    """Scenario and seed, then every config and adversary flag given."""
    scenario = shlex.quote(args.scenario or "-")
    words = [f"repro: scenario={scenario} seed={config.seed}"]
    for flag in (*(flag for flag, _ in _FIELDS.values()), "faulty", "script"):
        if (value := _flag_value(args, flag)) is not None:
            words.append(f"--{flag} {shlex.quote(str(value))}")
    return " ".join(words)


def cmd_run(args: argparse.Namespace) -> int:
    data: dict = {}
    if args.scenario:
        data = json.loads(Path(args.scenario).read_text())
        require_known_keys("scenario", data, _SCENARIO_KEYS)
    expected = read_expected(data.get("expected"))
    data.update(flag_overrides(args))
    if args.script:
        data["script"] = json.loads(Path(args.script).read_text())
    if args.faulty:
        # a script or crafted case already names its own faulty set
        if args.script or data.get("script") is not None or data.get("crafted"):
            other = "--script" if args.script else "the scenario key " + (
                "'script'" if data.get("script") is not None else "'crafted'"
            )
            raise ConfigurationError(f"--faulty cannot be combined with {other}")
        data["faulty"] = [int(p) for p in args.faulty.split(",") if p]
    config = build_config(data)
    script = build_script(data, config)
    result = run_execution(config, script)
    report = check_complexity(result)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "transcript.jsonl", "w", encoding="utf-8", newline="\n") as out:
        out.writelines(result.transcript.lines())
    mismatches = check_expected(result, report, expected)
    report_doc = {
        "scenario": data.get("name"),
        "verdict": result.verdict,
        "violations": result.violations,
        "expected_mismatches": mismatches,
        "diagnosis_count": result.diagnosis_count,
        "outcome_kinds": sorted({o["kind"] for o in result.outcomes}),
        "complexity": report.to_jsonable(),
        "config": config.to_jsonable(),
    }
    (out_dir / "report.json").write_text(
        json.dumps(report_doc, indent=2, sort_keys=True) + "\n"
    )

    print(_repro_line(args, config))
    print(
        f"{result.verdict} alg={config.algorithm} n={config.n} t={config.t}"
        + (f" q={config.q}" if config.q is not None else "")
        + f" data_bits={report.data_bits}"
        f" overhead_bits={report.overhead_bits}"
        f" diagnoses={result.diagnosis_count}"
    )
    for line in result.violations:
        print(f"violation: {line}")
    for line in mismatches:
        print(f"expected-mismatch: {line}")
    print(f"wrote {out_dir / 'transcript.jsonl'} and {out_dir / 'report.json'}")
    return 0 if result.passed and not mismatches else 1


def _parse_q_values(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part]


def cmd_sweep(args: argparse.Namespace) -> int:
    given = {name: default for name, (_, default) in _FIELDS.items()}
    given.update(flag_overrides(args))
    algorithm, n, t = given["algorithm"], given["n"], given["t"]
    if algorithm == ALG1:
        if args.q is not None:
            raise ConfigurationError(f"alg1 takes no q, got --q {args.q}")
        q_values: list[int | None] = [None]
    elif not args.q:
        raise ConfigurationError("alg2 sweeps need --q (single value or lo..hi)")
    elif not (q_values := _parse_q_values(args.q)):
        raise ConfigurationError(f"--q {args.q} names no quorum size")
    if args.trials < 1:
        raise ConfigurationError(f"--trials {args.trials} runs nothing")
    cases = sweep_cases(
        algorithm, n, t, q_values, args.trials, given["seed"],
        args.l_bits, args.d_bits,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures: list[int] = []
    max_diagnoses = 0
    # one row per run as it finishes; csv writes the None q of alg1 as ""
    with open(out_dir / "summary.csv", "w", newline="") as summary:
        rows = csv.writer(summary)
        rows.writerow(["seed", "algorithm", "n", "t", "q", "L", "D", "verdict",
                       "diagnosis_count", "p2p_bits", "bcast_bits"])
        for index, (config, script) in enumerate(cases):
            result = run_execution(config, script)
            rows.writerow([
                config.seed, config.algorithm, config.n, config.t, config.q,
                config.l_bits, config.d_bits, result.verdict,
                result.diagnosis_count, result.ledger.total("p2p_bits"),
                result.ledger.total("bcast_charged_bits"),
            ])
            max_diagnoses = max(max_diagnoses, result.diagnosis_count)
            if not result.passed:
                failures.append(index)
                (out_dir / f"failure_{index:04d}.json").write_text(
                    serialize_case(config, script)
                )

    print(
        f"sweep alg={algorithm} n={n} t={t} trials={len(cases)}"
        f" failures={len(failures)} max_diagnoses={max_diagnoses}"
    )
    print(f"wrote {out_dir / 'summary.csv'}")
    if failures:
        print(f"replay files: {out_dir}/failure_*.json")
        return 1
    return 0


def sweep_cases(
    algorithm: str,
    n: int,
    t: int,
    q_values: list[int | None],
    trials: int,
    base_seed: int,
    l_bits: int | None = None,
    d_bits: int | None = None,
) -> list[tuple[ExecutionConfig, AdversaryScript]]:
    """The cases `sweep` runs: per q, `trials` seeds from `base_seed` up.

    Trials rotate the SWEEP_STYLES input layouts, and each gets its own
    `random_script` adversary. L defaults to ten single-unit generations.
    """
    cases = []
    for q in q_values:
        k = code_dimension(n, t, q)
        for trial in range(trials):
            config = build_config({
                "algorithm": algorithm, "n": n, "t": t, "q": q,
                "l_bits": 8 * k * 10 if l_bits is None else l_bits,
                "d_bits": d_bits, "seed": base_seed + trial,
                "inputs": sweep_layout(trial, n, t),
            })
            cases.append((config, random_script(config, config.seed)))
    return cases


def cmd_acceptance(args: argparse.Namespace) -> int:
    from .acceptance import run_all

    start = time.perf_counter()
    results = run_all()
    for _, line in results:
        print(line)
    passed = sum(ok for ok, _ in results)
    seconds = time.perf_counter() - start
    print(f"{passed}/{len(results)} criteria passed in {seconds:.1f}s")
    return 0 if passed == len(results) else 1


def cmd_replay(args: argparse.Namespace) -> int:
    config, script = load_case(Path(args.case).read_text())
    verdict, identical = replay_identical(config, script)
    print(f"replay verdict={verdict} identical={'yes' if identical else 'NO'}")
    return 0 if identical else 1


# ---------------------------------------------------------------- parser


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alg", choices=(ALG1, ALG2), help="protocol to run")
    parser.add_argument("--n", type=int, help="number of processors")
    parser.add_argument("--t", type=int, help="fault budget (n >= 3t+1)")
    parser.add_argument("--l-bits", type=int, dest="l_bits",
                        help="value length in bits (multiple of 8)")
    parser.add_argument("--d-bits", type=int, dest="d_bits",
                        help="generation block size in bits (default: balanced)")
    parser.add_argument("--seed", type=int, help="base seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedbft",
        description="coded Byzantine consensus simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario end to end")
    run_p.add_argument("scenario", nargs="?", help="scenario JSON file")
    _add_config_flags(run_p)
    run_p.add_argument("--q", type=int, help="match quorum size (alg2)")
    run_p.add_argument("--faulty", help="comma separated faulty ids (no script)")
    run_p.add_argument("--script", help="adversary script JSON file")
    run_p.add_argument("--out-dir", default="out", dest="out_dir",
                       help="directory for transcript.jsonl and report.json")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="batch of random-adversary runs")
    _add_config_flags(sweep_p)
    sweep_p.add_argument("--q", help="quorum size or range lo..hi (alg2)")
    sweep_p.add_argument("--trials", type=int, default=100,
                         help="runs per parameter point")
    sweep_p.add_argument("--out-dir", default="out", dest="out_dir",
                         help="directory for summary.csv and failure cases")
    sweep_p.set_defaults(func=cmd_sweep)

    acc_p = sub.add_parser("acceptance", help="run the acceptance checklist")
    acc_p.set_defaults(func=cmd_acceptance)

    replay_p = sub.add_parser("replay", help="re-run a serialized case twice")
    replay_p.add_argument("case", help="case JSON produced by sweep failures")
    replay_p.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: invalid scenario or arguments: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
