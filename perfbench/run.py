"""Benchmark of the codedbft simulator, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The simulator is a batch tool, so each workload is a closed loop: one
client in one process, no threads, each execution starting after the
previous one ends. There is no arrival rate or latency limit, so
throughput is work done per host second at the workload's fixed input
size. Simulated traffic (ledger bits, transcripts, diagnoses) is
deterministic and is checked and printed, never timed.

The loop runs whole passes over the workload's case list until
`--seconds` have passed. Every execution is checked; a failed check
counts in `failed`. The last stdout line is the result object; the line
before it holds the run metadata, transcript digest and ledger totals.

Every time reported is host time scaled to the host's full speed (see
`hostspeed.py`), because the host this was written on runs everything
up to twice as slow while other tenants are busy. The unscaled host
times are in the metadata line under "host".

`--trace 0` reports the end-to-end metrics. `--trace 1` measures half the
time untraced and half with spans around each layer (see `spans.py`),
reports the per-layer metrics per pass of the case list, writes the
spans to `perfbench/out/`, and checks that tracing changed no digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
# interpreter start, `import codedbft` and building the cases, in a child
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]))"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s_p50": "s",
    "generations_per_s": "1/s",
    "value_kib_per_s": "KiB/s",
    "runs_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "transcript_bytes": "B",
}

# per-layer metric -> (span name, column of Tracer.totals(), unit)
LAYER_COLUMNS = {
    "rs.encode.calls": ("rs.encode", "calls", "count"),
    "rs.encode.self_s": ("rs.encode", "self_s", "s"),
    "rs.encode.bytes": ("rs.encode", "value", "B"),
    "rs.is_codeword.calls": ("rs.is_codeword", "calls", "count"),
    "rs.is_codeword.self_s": ("rs.is_codeword", "self_s", "s"),
    "rs.decode.calls": ("rs.decode", "calls", "count"),
    "rs.decode.self_s": ("rs.decode", "self_s", "s"),
    "rs.reconstruct_position.calls": ("rs.reconstruct_position", "calls", "count"),
    "rs.reconstruct_position.self_s": ("rs.reconstruct_position", "self_s", "s"),
    "sim.input_block.calls": ("sim.input_block", "calls", "count"),
    "sim.input_block.self_s": ("sim.input_block", "self_s", "s"),
    "sim.to_jsonl.self_s": ("sim.to_jsonl", "self_s", "s"),
    "sim.transcript.events": ("sim.run_execution", "events", "count"),
    "quorum.find_match_set.calls": ("quorum.find_match_set", "calls", "count"),
    "quorum.find_match_set.self_s": ("quorum.find_match_set", "self_s", "s"),
    "quorum.compute_match_bits.calls": ("quorum.compute_match_bits", "calls", "count"),
    "quorum.compute_match_bits.self_s": ("quorum.compute_match_bits", "self_s", "s"),
    "consensus.matching_obligations.calls": ("consensus.matching_obligations", "calls", "count"),
    "consensus.matching_obligations.self_s": ("consensus.matching_obligations", "self_s", "s"),
    "consensus.obligations": ("consensus.matching_obligations", "value", "count"),
    "consensus.detection_flag.calls": ("consensus.detection_flag", "calls", "count"),
    "consensus.detection_flag.self_s": ("consensus.detection_flag", "self_s", "s"),
    "consensus.run_diagnosis.calls": ("consensus.run_diagnosis", "calls", "count"),
    "consensus.run_diagnosis.self_s": ("consensus.run_diagnosis", "self_s", "s"),
    "diagnosis.edges_removed": ("sim.run_execution", "edges_removed", "count"),
    "diagnosis.convictions": ("sim.run_execution", "convictions", "count"),
    "sim.diagnosis_count": ("sim.run_execution", "diagnosis_count", "count"),
    "sim.run_execution.self_s": ("sim.run_execution", "self_s", "s"),
    "sim.check_complexity.self_s": ("sim.check_complexity", "self_s", "s"),
    "sim.ledger.p2p_bits": ("sim.run_execution", "p2p_bits", "bit"),
    "sim.ledger.bcast_charged_bits": ("sim.run_execution", "bcast_charged_bits", "bit"),
}
# per-layer ratio -> (span name, unit): the span's `value` sum over its calls
LAYER_RATIOS = {
    "quorum.find_match_set.found_ratio": ("quorum.find_match_set", "ratio"),
    "consensus.detection_flag.true_ratio": ("consensus.detection_flag", "ratio"),
}


@dataclass
class Measurement:
    """Timed executions of whole passes, plus what the checks saw.

    `times` are at reference speed (see `hostspeed.py`), `host_times`
    as the host clock gave them. Digest, ledger and diagnosis totals
    are per pass; every pass must repeat the first exactly.
    """

    times: list[float] = field(default_factory=list)
    host_times: list[float] = field(default_factory=list)
    generations: list[int] = field(default_factory=list)
    value_bytes: list[int] = field(default_factory=list)
    transcript_bytes: list[int] = field(default_factory=list)
    passes: int = 0
    digest: str | None = None
    totals: dict[str, int] | None = None
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def batches(self, size: int) -> list[tuple[float, int, int, int]]:
        """(seconds, generations, value bytes, executions) per batch."""
        return [
            (sum(self.times[i:i + size]), sum(self.generations[i:i + size]),
             sum(self.value_bytes[i:i + size]), len(self.times[i:i + size]))
            for i in range(0, len(self.times), size)
        ]

    def run_s_p50(self, size: int) -> float:
        return statistics.median(s / r for s, _, _, r in self.batches(size))

    def host(self) -> dict[str, float | None]:
        """Unscaled host seconds per execution, for comparison."""
        return {"run_s_p50": statistics.median(self.host_times),
                "run_s_p90": _p90(self.host_times)}


def _p90(times: list[float]) -> float | None:
    # a p90 needs ten samples beyond it
    return statistics.quantiles(times, n=10)[8] if len(times) >= 100 else None


def measure(workload, cases, seconds: float, speed, tracer=None) -> Measurement:
    """Whole passes over `cases` until `seconds` of wall time have passed."""
    m = Measurement()
    start = perf_counter()
    while m.passes == 0 or perf_counter() - start < seconds:
        gc.collect()
        digest = hashlib.sha256()
        totals = {"p2p_bits": 0, "bcast_charged_bits": 0, "diagnosis_count": 0}
        for case in cases:
            if tracer is not None:
                tracer.execution_id += 1
                tracer.recording = True
            busy = speed.busy
            t0 = perf_counter()
            run = workload.execute(case)
            t1 = perf_counter()
            if tracer is not None:
                tracer.recording = False
            host_s = t1 - t0 - (speed.busy - busy)
            m.host_times.append(host_s)
            m.times.append(host_s * speed.scale(t0, t1))
            problems = workload.check(run)
            result = run.result
            text = run.jsonl if run.jsonl is not None else result.transcript.to_jsonl()
            digest.update(text.encode())
            m.transcript_bytes.append(len(text))
            m.generations.append(result.config.generations)
            m.value_bytes.append(result.config.l_bits // 8)
            totals["p2p_bits"] += result.ledger.total("p2p_bits")
            totals["bcast_charged_bits"] += result.ledger.total("bcast_charged_bits")
            totals["diagnosis_count"] += result.diagnosis_count
            if problems:
                m.failed += 1
                m.problems.extend(problems)
            # a user's run holds one result at a time
            del run, result, text
        m.passes += 1
        if m.digest is None:
            m.digest, m.totals = digest.hexdigest(), totals
        elif (m.digest, m.totals) != (digest.hexdigest(), totals):
            m.failed += len(cases)
            m.problems.append(f"pass {m.passes} differs from pass 1")
    return m


def measure_setup(name: str, seed: int, speed) -> list[float]:
    """Seconds, at reference speed, of fresh interpreters building the cases.

    The benchmark pins itself to one core meanwhile, and the children
    inherit it, so they run where the sampler measures the host speed.
    The exit is awaited on a pidfd: `Popen.wait(timeout)` polls in
    steps of up to 50 ms, which would round every sample.
    """
    argv = [sys.executable, "-c", SETUP_CODE,
            str(ROOT / "src"), str(ROOT / "perfbench"), name, str(seed)]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            busy = speed.busy
            t0 = perf_counter()
            with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL) as child:
                pidfd = os.pidfd_open(child.pid)
                try:
                    ready, _, _ = select.select([pidfd], [], [], SETUP_TIMEOUT_S)
                finally:
                    os.close(pidfd)
                t1 = perf_counter()
                if not ready:
                    child.kill()
                if child.wait() != 0 or not ready:
                    raise RuntimeError(f"set-up of {name} failed: {' '.join(argv)}")
            times.append((t1 - t0 - (speed.busy - busy)) * speed.scale(t0, t1))
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def end_to_end(m: Measurement, batch: int, setup: list[float]) -> dict[str, float]:
    """Time and throughput are medians over batches of `batch` executions.

    A batch of the sweep holds its whole case mix, so a batch median is
    steady against both cheap and costly cases.
    """
    batches = m.batches(batch)

    def median(f):
        return statistics.median(f(*b) for b in batches)

    return {
        "setup_s": statistics.median(setup),
        "run_s_p50": m.run_s_p50(batch),
        "generations_per_s": median(lambda s, g, v, r: g / s),
        "value_kib_per_s": median(lambda s, g, v, r: v / 1024 / s),
        "runs_per_s": median(lambda s, g, v, r: r / s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "transcript_bytes": statistics.median(m.transcript_bytes),
    }


def per_layer(totals: dict, passes: int, overhead: float, scale: float) -> dict[str, float]:
    """Per pass of the case list; self times at reference speed."""
    out = {}
    for metric, (span, column, _) in LAYER_COLUMNS.items():
        value = totals[span][column] / passes
        out[metric] = value * scale if column == "self_s" else value
    for metric, (span, _) in LAYER_RATIOS.items():
        calls = totals[span]["calls"]
        out[metric] = totals[span]["value"] / calls if calls else 0.0
    out["trace.overhead_ratio"] = overhead
    return out


def units(trace: bool) -> dict[str, str]:
    if not trace:
        return END_TO_END_UNITS
    out = {metric: unit for metric, (_, _, unit) in LAYER_COLUMNS.items()}
    out.update({metric: unit for metric, (_, unit) in LAYER_RATIOS.items()})
    out["trace.overhead_ratio"] = "ratio"
    return out


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "codedbft").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall time to measure; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, table: dict | None = None) -> int:
    """Run one workload; `table` replaces the workload table (for tests)."""
    args = parse_args(argv)
    if not (ROOT / "src" / "codedbft" / "sim.py").is_file():
        print(f"error: {ROOT} holds no src/codedbft; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hostspeed
    import spans
    import workloads

    table = table or workloads.WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(table)}",
              file=sys.stderr)
        return 2
    workload = table[args.workload]

    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_rev": _git_rev(), "src_sha256": _src_sha256(),
    }
    with hostspeed.HostSpeed() as speed:
        setup = [] if args.trace else measure_setup(workload.name, args.seed, speed)
        cases = workload.build(args.seed)
        if args.trace:
            base = measure(workload, cases, args.seconds / 2, speed)
            tracer = spans.Tracer()
            tracer.install()
            try:
                m = measure(workload, cases, args.seconds / 2, speed, tracer)
            finally:
                tracer.restore()
        else:
            m = measure(workload, cases, args.seconds, speed)
    meta["cases"] = len(cases)
    meta["reference_s_p50"] = statistics.median(speed.took)
    if args.trace:
        if (m.digest, m.totals) != (base.digest, base.totals):
            m.failed += len(cases)
            m.problems.append("tracing changed a transcript digest or ledger total")
        totals = tracer.totals()
        overhead = m.run_s_p50(workload.batch) / base.run_s_p50(workload.batch)
        metrics = per_layer(totals, m.passes, overhead, sum(m.times) / sum(m.host_times))
        self_total = sum(row["self_s"] for row in totals.values())
        meta["self_share"] = {
            name: round(row["self_s"] / self_total, 4) for name, row in totals.items()
        }
        meta["spans"] = len(tracer)
        attempted = len(base.times) + len(m.times)
        failed, problems = base.failed + m.failed, base.problems + m.problems
        meta["samples"] = {"untraced": len(base.times), "traced": len(m.times),
                           "traced_passes": m.passes}
        meta["host"] = {"untraced": base.host(), "traced": m.host()}
        tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl", meta)
    else:
        metrics = end_to_end(m, workload.batch, setup)
        attempted, failed, problems = len(m.times), m.failed, m.problems
        meta["samples"] = {"setup_s": len(setup), "executions": len(m.times),
                           "batches": len(m.batches(workload.batch)),
                           "passes": m.passes, "peak_rss_mib": 1}
        meta["run_s_p90"] = _p90(m.times)
        meta["host"] = m.host()
    # a pass that differs from the first fails all its executions
    failed = min(failed, attempted)
    meta.update({
        "transcript_sha256": m.digest, "ledger": m.totals,
        "fail_ratio": failed / attempted, "problems": problems[:10],
    })
    for line in problems[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}, sort_keys=True))
    unit = units(bool(args.trace))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
