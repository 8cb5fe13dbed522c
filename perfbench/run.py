"""Benchmark of the swapmeter CLI: stage throughput, wall time and peak memory.

Run from the root of a checkout (it runs the code under src/):

    python3 perfbench/run.py --workload replay-2k --seed 7 --seconds 55 --trace 0

`--workload all` runs every workload in turn and prints one result line
for each.

A run generates the workload's inputs from the seed, then runs the real
CLI stages (calibrate, analyze, report) as child processes, one after
another, repeating the pipeline for --seconds (at least twice). Every
stage's outputs are checked. The end-to-end metrics aggregate the
repetitions: throughput is total pairs over total stage time, pipeline_s
sums each stage's mean time, and setup time and peak RSS are medians.
With --trace 1 the pipeline runs once untraced and once under
perfbench/spans.py, and the per-layer metrics are printed instead. Each metric is printed by name with its unit, followed by
failed_stage_ratio and failed_pair_ratio, which are 0 whenever the checks
pass. The last line of standard output is one JSON object with the keys
correct, attempted (stages run), failed (stages failed) and metrics.

Exit codes: 0 when every check passes, 1 when an output check fails,
2 when the current directory is not a swapmeter checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
from spans import summarize
from workloads import OFFSETS, WORKLOADS, Workload, drift_pools_csv

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 7
MIN_REPS = 2
# analyze is short next to report, so each repetition runs it twice: more
# timed runs steady the figure of the short stage.
ANALYZE_RUNS = 2
STARTUP_REPEATS = 5
# Children still running this long after the run started are killed, so
# that a hung program cannot keep the benchmark past its time limit.
RUN_LIMIT_S = 170.0


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Runs one child process at a time and measures its wall time and peak RSS."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.work = work
        self.deadline = deadline
        self.stages_run = 0
        self.stages_failed = 0

    def run(self, argv: list[str], name: str) -> Child:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return Child(-1, 0.0, 0.0, 0.0, "", "run time limit reached")
        logs = self.work / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        with open(logs / f"{name}.out", "w+") as out, open(logs / f"{name}.err", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                # wait4 gives the resource usage of this child only.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            cpu = usage.ru_utime + usage.ru_stime
            rss_mb = usage.ru_maxrss / 1024
            return Child(proc.returncode, wall, cpu, rss_mb, out.read(), err.read())

    def count(self, problems: list[str]) -> None:
        self.stages_run += 1
        self.stages_failed += bool(problems)


@dataclass
class Rep:
    """One pass of the pipeline over the workload's inputs."""

    label: str
    stages: dict[str, list[Child]] = field(default_factory=dict)  # stage -> its runs
    problems: list[str] = field(default_factory=list)
    bad_pairs: int = 0
    digests: dict[str, str] = field(default_factory=dict)


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, runner: Runner):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.runner = runner
        self.work = runner.work

    def command(self, args: list[str], spans: Path | None = None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "swapmeter.cli", *args]
        return [sys.executable, str(BENCH_DIR / "spans.py"), str(spans), *args]

    def verify_import(self) -> list[str]:
        """Import swapmeter once (this also compiles its bytecode) and check its origin."""
        child = self.runner.run(
            [sys.executable, "-c", "import swapmeter.cli, swapmeter; print(swapmeter.__file__)"],
            "import",
        )
        origin = Path(child.stdout.strip() or ".").resolve()
        if child.returncode != 0 or not origin.is_relative_to((self.root / "src").resolve()):
            return [f"swapmeter does not import from {self.root / 'src'}: {child.stderr.strip()}"]
        return []

    def setup(self, spans: Path | None = None) -> tuple[float, list[str]]:
        """Generate the inputs into work/data; returns (seconds, problems)."""
        data = self.work / "data"
        shutil.rmtree(data, ignore_errors=True)
        start = time.perf_counter()
        spec = json.dumps(self.workload.spec(self.seed), indent=2)
        (self.work / "spec.json").write_text(spec + "\n", encoding="utf-8")
        synth = self.command(["synth", "spec.json", "--out", "data"], spans)
        child = self.runner.run(synth, "synth")
        problems = check.check_stage("synth", child.returncode, child.stderr, data)
        if not problems and self.workload.drift:
            drift_pools_csv(data / "pools.csv")
        elapsed = time.perf_counter() - start
        self.runner.count(problems)
        return elapsed, problems

    def pipeline(self, label: str, spans_dir: Path | None = None, analyze_runs: int = 1):
        """Run every stage once, except analyze, which runs `analyze_runs` times."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        rep = Rep(label)
        for stage in self.workload.stages:
            for _ in range(analyze_runs if stage == "analyze" else 1):
                spans = None if spans_dir is None else spans_dir / f"{stage}.json"
                child = self.runner.run(self.command(self.workload.stage_args(stage), spans), stage)
                rep.stages.setdefault(stage, []).append(child)
                problems = self.check(stage, child, rep)
                self.runner.count(problems)
                rep.problems += problems
                if problems:
                    return rep
        rep.digests = check.digests(out)
        return rep

    def check(self, stage: str, child: Child, rep: Rep) -> list[str]:
        out = self.work / "out"
        problems = check.check_stage(stage, child.returncode, child.stderr, out)
        if not problems and stage == "analyze":
            ids = check.trade_ids(self.work / "data" / "trades.csv")
            attribution = out / "attribution.csv"
            problems, rep.bad_pairs = check.check_attribution(attribution, ids, OFFSETS)
        if not problems and stage == "report":
            problems = check.check_summary(out / "summary.json")
        return problems


END_TO_END = {
    "setup_s": "s",
    "analyze_pairs_per_s": "pairs/s",
    "report_pairs_per_s": "pairs/s",
    "pipeline_s": "s",
    "analyze_rss_mb": "MB",
    "report_rss_mb": "MB",
}


def measure(bench: Bench, seconds: int) -> tuple[dict, list[str], list[Rep]]:
    """End-to-end run: set up several times, then repeat the pipeline for `seconds`.

    On a shared host, CPU speed can swing between fast and slow states that
    last seconds, so the median of the few runs of one stage lands in either
    state. Throughput is therefore total pairs over total stage time, and
    pipeline_s sums each stage's mean time: both average over the states.
    """
    problems = bench.verify_import()
    setups = []
    while not problems and len(setups) < SETUP_REPEATS:
        elapsed, problems = bench.setup()
        setups.append(elapsed)
    reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    while not problems:
        started = time.perf_counter()
        rep = bench.pipeline("run", analyze_runs=ANALYZE_RUNS)
        reps.append(rep)
        problems = rep.problems
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and now + (now - started) > deadline:
            break
    if problems:
        return {}, problems, reps
    if any(rep.digests != reps[0].digests for rep in reps):
        return {}, ["output bytes differ between repetitions of one run"], reps
    runs = {
        stage: [child for rep in reps for child in rep.stages[stage]]
        for stage in bench.workload.stages
    }
    pairs = bench.workload.pairs

    def pairs_per_s(stage: str) -> float:
        return pairs * len(runs[stage]) / sum(child.wall_s for child in runs[stage])

    values = {
        "setup_s": statistics.median(setups),
        "analyze_pairs_per_s": pairs_per_s("analyze"),
        "report_pairs_per_s": pairs_per_s("report"),
        "pipeline_s": sum(statistics.fmean(c.wall_s for c in r) for r in runs.values()),
        "analyze_rss_mb": statistics.median(child.rss_mb for child in runs["analyze"]),
        "report_rss_mb": statistics.median(child.rss_mb for child in runs["report"]),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, [], reps


def _us_per(seconds: float, count: int) -> float:
    return seconds * 1e6 / count if count else 0.0


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, 0 when there are no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# name -> (unit, layer the metric needs wrapped)
PER_LAYER = {
    "cli.startup_s": ("s", None),
    "cli.calibrate_stage_s": ("s", None),
    "synth.generate_s": ("s", "synth"),
    "ingest.trades_us_per_row": ("us", "ingest.trades"),
    "ingest.quotes_us_per_row": ("us", "ingest.quotes"),
    "ingest.pools_us_per_row": ("us", "ingest.pools"),
    "output.write_s": ("s", "output"),
    "output.bytes": ("bytes", "output"),
    "baseline.quote_calls": ("count", "baseline"),
    "baseline.quote_calls_per_pair": ("ratio", "baseline"),
    "baseline.self_us_per_call": ("us", "baseline"),
    "router.calls": ("count", "router"),
    "router.distinct_calls": ("count", "router"),
    "router.useful_ratio": ("ratio", "router"),
    "router.call_us_p50": ("us", "router"),
    "router.call_us_p99": ("us", "router"),
    "router.total_s": ("s", "router"),
    "prices.counterfactual_self_us_per_call": ("us", "prices"),
    "attribution.pairs": ("count", "attribution"),
    "attribution.self_us_per_pair": ("us", "attribution"),
    "pipeline.analyze_passes": ("count", "pipeline.analyze"),
    "pipeline.analyze_self_s": ("s", "pipeline.analyze"),
    "pipeline.aggregate_self_s": ("s", "pipeline.aggregate"),
    "stats.wmean_calls": ("count", "stats"),
    "stats.wmean_points": ("count", "stats"),
    "stats.wmean_s": ("s", "stats"),
    "trace.report_overhead_s": ("s", None),
}


def trace(bench: Bench) -> tuple[dict, list[str], list[Rep]]:
    """Traced run: one untraced and one traced pipeline, then per-layer metrics.

    Ingest and output figures come from the `analyze` stage, which reads
    every input and writes attribution.csv; the quote, router,
    attribution, pipeline and stats figures come from `report`.
    """
    problems = bench.verify_import()
    if problems:
        return {}, problems, []
    startup = []
    for _ in range(STARTUP_REPEATS):
        child = bench.runner.run([sys.executable, "-c", "import swapmeter.cli"], "import")
        startup.append(child.wall_s)
    spans_dir = bench.work / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    _, problems = bench.setup(spans_dir / "synth.json")
    if problems:
        return {}, problems, []
    plain = bench.pipeline("untraced run")
    if plain.problems:
        return {}, plain.problems, [plain]
    traced = bench.pipeline("traced run", spans_dir)
    if traced.problems:
        return {}, traced.problems, [plain, traced]
    if traced.digests != plain.digests:
        return {}, ["traced outputs differ from untraced outputs"], [plain, traced]

    synth, missing, _ = summarize(spans_dir / "synth.json")
    analyze, missing_analyze, _ = summarize(spans_dir / "analyze.json")
    report, missing_report, distinct = summarize(spans_dir / "report.json")
    missing.update(missing_analyze)
    missing.update(missing_report)
    ingest = {name: analyze[f"ingest.{name}"] for name in ("trades", "quotes", "pools")}
    quotes, router = report["baseline"], report["router"]
    prices, attribution = report["prices"], report["attribution"]
    calibrate = plain.stages.get("calibrate", [None])[0]
    values = {
        "cli.startup_s": statistics.median(startup),
        "cli.calibrate_stage_s": calibrate.wall_s if calibrate else 0.0,
        "synth.generate_s": sum(synth["synth"].durations),
        "ingest.trades_us_per_row": _us_per(ingest["trades"].self_s, ingest["trades"].work),
        "ingest.quotes_us_per_row": _us_per(ingest["quotes"].self_s, ingest["quotes"].work),
        "ingest.pools_us_per_row": _us_per(ingest["pools"].self_s, ingest["pools"].work),
        "output.write_s": sum(analyze["output"].durations),
        "output.bytes": analyze["output"].work,
        "baseline.quote_calls": quotes.calls,
        "baseline.quote_calls_per_pair": quotes.calls / bench.workload.pairs,
        "baseline.self_us_per_call": _us_per(quotes.self_s, quotes.calls),
        "router.calls": router.calls,
        "router.distinct_calls": distinct,
        "router.useful_ratio": distinct / router.calls if router.calls else 0.0,
        "router.call_us_p50": _quantile(router.durations, 50) * 1e6,
        "router.call_us_p99": _quantile(router.durations, 99) * 1e6,
        "router.total_s": sum(router.durations),
        "prices.counterfactual_self_us_per_call": _us_per(prices.self_s, prices.calls),
        "attribution.pairs": attribution.calls,
        "attribution.self_us_per_pair": _us_per(attribution.self_s, attribution.calls),
        "pipeline.analyze_passes": report["pipeline.analyze"].calls,
        "pipeline.analyze_self_s": report["pipeline.analyze"].self_s,
        "pipeline.aggregate_self_s": report["pipeline.aggregate"].self_s,
        "stats.wmean_calls": report["stats"].calls,
        "stats.wmean_points": report["stats"].work,
        "stats.wmean_s": sum(report["stats"].durations),
        "trace.report_overhead_s": traced.stages["report"][0].wall_s
        - plain.stages["report"][0].wall_s,
    }
    for name, layer in sorted(missing.items()):
        print(f"missing layer {layer}: {name} does not exist")
    metrics = {
        name: (values[name], unit)
        for name, (unit, layer) in PER_LAYER.items()
        if layer not in missing.values()
    }
    return metrics, [], [plain, traced]


def run_workload(root: Path, workload: Workload, seed: int, seconds: int, traced: bool) -> bool:
    """Run one workload, print its figures and result line; True when every check passed."""
    started = time.perf_counter()
    work = root / WORK_DIR / f"{workload.name}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, started + RUN_LIMIT_S)
    bench = Bench(root, workload, seed, runner)
    if traced:
        metrics, problems, reps = trace(bench)
    else:
        metrics, problems, reps = measure(bench, seconds)

    pairs_run = workload.pairs * len(reps)
    bad_pairs = sum(rep.bad_pairs for rep in reps)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {seed}, trace {int(traced)}: {len(reps)} runs of {workload.pairs} pairs")
    for rep in reps:
        stages = ", ".join(
            f"{stage} {c.wall_s:.3f} s ({c.cpu_s:.3f} s cpu) / {c.rss_mb:.1f} MB"
            for stage, children in rep.stages.items()
            for c in children
        )
        print(f"  {rep.label}: {stages}")
    if reps:
        for name, digest in reps[0].digests.items():
            print(f"  sha256 {digest}  {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit}")
    ratios = {
        "failed_stage_ratio": runner.stages_failed / max(runner.stages_run, 1),
        "failed_pair_ratio": bad_pairs / max(pairs_run, 1),
    }
    for name, value in ratios.items():
        print(f"{name:40s} {value:>16.6f} ratio")
    for problem in problems:
        print(f"check failed: {problem}")
    correct = not problems
    if correct:
        shutil.rmtree(work)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    else:
        print(f"work files kept in {work}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": max(runner.stages_run, 1),
        "failed": runner.stages_failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running child is
    # killed and waited for before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "swapmeter" / "cli.py").is_file():
        print(f"error: {root} has no src/swapmeter/cli.py to benchmark", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [
        run_workload(root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
