"""Outside-in benchmark of the cinestagger CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain-night --seed 1 --seconds 30 --trace 0

Each workload runs in this one process as a closed loop with one client:
one op at a time, each a direct call to ``cinestagger.cli.main(argv)``
with stdout and stderr captured, no extra threads or subprocesses.  Every
op's output is checked independently (see checks.py).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of a separate traced pass with ``--trace 1``.  End-to-end timings
are scaled to a nominal host (see HostGauge); their wall-time values are
printed above the result line as ``*_wall``.

``--workload all`` runs every workload of workloads.json in turn, each in
a child process, and prints one row per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
SETUP_REPEATS = 20         # set-ups before the pool is built, and again after the timed loop
REF_SECONDS = 0.006        # reference_work() time of the nominal host that timings are scaled to
TAIL_SAMPLES = 10          # samples the reported tail percentile must leave beyond it


class OpCapped(BaseException):
    """Raised by SIGALRM inside an op that ran past its cap."""


def _on_alarm(signum, frame):
    raise OpCapped()


@dataclass
class OpResult:
    seconds: float
    code: Optional[int]
    out: str
    problem: Optional[str]     # None when the op returned; its output is checked after
    capped: bool = False


@dataclass
class LoopStats:
    latencies: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)     # latencies in nominal-host seconds
    problems: List[str] = field(default_factory=list)
    ok: int = 0
    wrong: int = 0             # failed an output or digest check
    capped: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def call_capped(main: Callable, argv: List[str], cap: float) -> OpResult:
    """Run ``main(argv)`` with output captured, aborting it after ``cap`` seconds.

    The cap fires in this process through SIGALRM; an aborted op is charged
    the full cap.
    """
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    started = time.perf_counter()
    code: Optional[int] = None
    problem = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:       # a crash is a failed op, never the end of the run
                problem = f"crashed: {type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - started
    except OpCapped:
        return OpResult(cap, None, out.getvalue(), f"aborted at the {cap:g} s cap", capped=True)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return OpResult(seconds, code, out.getvalue(), problem)


def run_op(stats: LoopStats, main: Callable, op, index: int, cap: float,
           digests: Dict[int, str], tracer=None) -> None:
    """Run one op, check its output outside the timed region and record the outcome."""
    if op.lp_path is not None:
        op.lp_path.unlink(missing_ok=True)   # so no op passes on an earlier op's export
    if tracer is not None:
        root = tracer.open(tracing.ROOT)
    result = call_capped(main, op.argv, cap)
    if tracer is not None:
        tracer.close(root)
        tracer.end_op()
        tracer.counts["cli.bytes_out"] += len(result.out)
    stats.latencies.append(result.seconds)
    problem = result.problem
    if problem is None:
        written = op.written()
        try:
            problems = op.check(result.code, result.out, written)
        except Exception as exc:     # output too malformed to check is a wrong output
            problems = [f"unparsable output: {type(exc).__name__}: {exc}"]
        digest = hashlib.sha256((result.out + written).encode()).hexdigest()
        if digests.setdefault(index, digest) != digest:
            problems.append("output differs from an earlier repetition of the same op")
        if problems:
            problem = "; ".join(problems)
            stats.wrong += 1
    elif result.capped:
        stats.capped += 1
    if problem is None:
        stats.ok += 1
    else:
        stats.problems.append(f"{' '.join(op.argv)}: {problem}")


def reference_work() -> int:
    """Fixed pure-Python work that uses no part of the program, timed as a gauge of host speed.

    One half builds and serializes a table, like the program's document
    paths; the other enumerates assignments recursively, like its brute-force
    oracle.  The host's contention slows the two by different factors.
    """
    table = {}
    for i in range(3000):
        table[(i % 97, i)] = str(i * 7919)
    total = len(json.dumps(list(table.values())))
    weights = {(i, j): (i * 31 + j * 17) % 101 for i in range(5) for j in range(7)}
    used = [False] * 7

    def walk(i: int, value: int) -> int:
        if i == 5:
            return value
        best = 0
        for j in range(7):
            if not used[j] and (i, j) in weights:
                used[j] = True
                best = max(best, walk(i + 1, value + weights[i, j]))
                used[j] = False
        return best

    return total + walk(0, 0)


class HostGauge:
    """Converts wall times into seconds of a nominal host, on which reference_work() takes REF_SECONDS.

    The host's speed swings by up to 1.5x within seconds and drifts by as
    much over minutes, so reference_work() is timed between measured calls
    and each call's wall time is scaled by REF_SECONDS over the mean of the
    reference times just before and just after it.
    """

    def __init__(self) -> None:
        self.last = self._read()

    @staticmethod
    def _read() -> float:
        """Time of one reference_work(), with the collector off so the program's heap cannot slow it."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            reference_work()
            return time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()

    def scale(self, seconds: float) -> float:
        """``seconds`` of wall time that just ended, in seconds of the nominal host."""
        before, self.last = self.last, self._read()
        return seconds * 2 * REF_SECONDS / (before + self.last)


def run_loop(main: Callable, ops: list, cap: float, seconds: float,
             digests: Dict[int, str]) -> LoopStats:
    """Closed loop of whole passes over ``ops`` until ``seconds`` of op time are spent.

    Whole passes keep the measured mix of documents the one the pool was
    balanced for; ``seconds=0`` gives exactly one pass.
    """
    stats = LoopStats()
    gauge = HostGauge()
    k = 0
    while k == 0 or k % len(ops) or sum(stats.latencies) < seconds:
        run_op(stats, main, ops[k % len(ops)], k % len(ops), cap, digests)
        stats.scaled.append(gauge.scale(stats.latencies[-1]))
        k += 1
    return stats


def tail(latencies: List[float]):
    """(percentile, value): the highest nearest-rank percentile with TAIL_SAMPLES beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - TAIL_SAMPLES)
    return 100.0 * rank / n, ordered[rank - 1]


def import_program():
    """Import the package from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "cinestagger" / "cli.py").is_file():
        print(f"error: no cinestagger sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def measure_setup() -> List[Tuple[float, float]]:
    """(wall, nominal-host) seconds of SETUP_REPEATS fresh imports of cinestagger.cli,
    each plus one warm-up solve."""
    samples = []
    gauge = HostGauge()
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "cinestagger" or m.startswith("cinestagger.")]:
            del sys.modules[name]
        started = time.perf_counter()
        cli = importlib.import_module("cinestagger.cli")
        example = importlib.import_module("cinestagger.data").example_instance_path()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["solve", str(example)])
        wall = time.perf_counter() - started
        samples.append((wall, gauge.scale(wall)))
        if code != 0:
            print(f"error: warm-up solve of the bundled example exited {code}", file=sys.stderr)
            sys.exit(1)
    return samples


def traced_pass(main: Callable, ops: list, cap: float, digests: Dict[int, str]):
    """One pass over ``ops`` with the timing wrappers installed around each op.

    Each op of the first half of the pool also runs untraced next to its
    traced run, first on even and second on odd indexes, so the two see the
    same host conditions and warm-up favours neither; the wrappers are
    removed after every traced op.  Returns (traced stats, untraced stats,
    tracer).
    """
    tracer = tracing.Tracer()
    traced, plain = LoopStats(), LoopStats()
    for index, op in enumerate(ops):
        paired = index < (len(ops) // 2 or 1)
        if paired and index % 2 == 0:
            run_op(plain, main, op, index, cap, digests)
        tracer.op = index
        tracer.install()
        try:
            run_op(traced, main, op, index, cap, digests, tracer)
        finally:
            tracer.remove()
        if paired and index % 2 == 1:
            run_op(plain, main, op, index, cap, digests)
    return traced, plain, tracer


def report_problems(stats: LoopStats) -> None:
    for line in stats.problems[:5]:
        print(f"failed op: {line}", file=sys.stderr)
    if len(stats.problems) > 5:
        print(f"... and {len(stats.problems) - 5} more failed ops", file=sys.stderr)


def metric_entries(metrics: Dict[str, tuple], names) -> dict:
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names}


def run_workload(args):
    """Set up, build the pool and measure; returns (loop stats, every metric measured)."""
    spec = workloads.load_spec()["workloads"][args.workload]
    cap = float(spec["cap_s"])
    setups = measure_setup()
    cli = sys.modules["cinestagger.cli"]
    from cinestagger.synth import generate_document

    workdir = WORKDIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.build_pool(spec, args.seed, workdir, generate_document)
    digests: Dict[int, str] = {}

    if not args.trace:
        stats = run_loop(cli.main, ops, cap, args.seconds, digests)
        # set-ups on both sides of the loop, so their median spans the host's speed over the run
        setups += measure_setup()
        timed = sum(stats.latencies)
        percentile, tail_s = tail(stats.scaled)
        metrics = {
            "ops_per_s": (stats.ok / sum(stats.scaled), "1/s"),
            "op_ms_p50": (statistics.median(stats.scaled) * 1000, "ms"),
            "op_ms_tail": (tail_s * 1000, "ms"),
            "failed_frac": (stats.failed / stats.attempted, "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(nominal for _, nominal in setups), "s"),
            "ops_per_s_wall": (stats.ok / timed, "1/s"),
            "op_ms_p50_wall": (statistics.median(stats.latencies) * 1000, "ms"),
            "setup_s_wall": (statistics.median(wall for wall, _ in setups), "s"),
        }
        report_problems(stats)
        print(f"{args.workload}  seed {args.seed}  {stats.attempted} ops in {timed:.1f} s"
              f"  (pool of {len(ops)} ops, cap {cap:g} s)")
        notes = {
            "op_ms_tail": f"p{percentile:.1f} of {stats.attempted} ops",
            "failed_frac": f"{stats.failed} of {stats.attempted}: {stats.wrong} wrong,"
                           f" {stats.capped} capped",
        }
        for name, (value, unit) in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<15} {value:12.4f} {unit}{note}")
        return stats, metrics

    traced, plain, tracer = traced_pass(cli.main, ops, cap, digests)
    tracer.write(workdir / "spans.jsonl")
    overhead = 1 - sum(plain.latencies) / sum(traced.latencies[:plain.attempted])
    metrics = tracing.layer_metrics(tracer, len(ops), sum(traced.latencies), overhead)
    report_problems(traced)
    print(f"{args.workload}  seed {args.seed}  traced pass of {len(ops)} ops"
          f" in {sum(traced.latencies):.1f} s")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<45} {value:14.4f} {unit}")
    traced.wrong += plain.wrong
    return traced, metrics


def run_all(args) -> int:
    """Every workload in turn, each in its own child process, then one row each."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    records = WORKDIR / f"all-{args.seed}-{args.trace}.jsonl"
    records.unlink(missing_ok=True)
    for name in workloads.load_spec()["workloads"]:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(records)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        print("\n".join(proc.stdout.splitlines()[:-1]))
    if args.trace:
        return 0
    rows = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
    names = list(rows[0]["metrics"])
    heads = [f"{n} ({rows[0]['metrics'][n]['unit']})" for n in names]
    print()
    print(f"{'workload':<14}" + "".join(f"{h:>22}" for h in heads))
    for r in rows:
        print(f"{r['workload']:<14}" + "".join(f"{r['metrics'][n]['value']:>22.4f}" for n in names))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure, in whole passes over the pool")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append {workload, seed, trace, metrics} of this run to a JSONL file")
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    # the benchmark's contract: the result line carries the metrics BENCHMARK.json names
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]
    stats, metrics = run_workload(args)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "metrics": metric_entries(metrics, metrics)}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": stats.wrong == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metric_entries(metrics, names),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
