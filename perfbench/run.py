"""polydiv benchmark: end-to-end CLI requests, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a polydiv checkout; the package is imported from
its ``src`` directory and nowhere else. Load model: one client in a
closed loop, one process, one thread. Each request is
``polydiv.cli.main(argv)`` called in-process with stdout and stderr sent
to buffers, which covers argparse, parsing, the route, the
reconstruction check and rendering. Replies are checked for exactness
outside the timed region.

--trace 0 measures for --seconds (and at least MIN_REQUESTS requests,
so the 90th percentile has ten samples beyond it) and prints the
end-to-end metrics, with times at nominal machine speed (SpeedProbe).
--trace 1 serves each request of a fixed prefix of the corpus twice,
untraced and then with spans around every layer, and prints the
per-layer metrics; calls and counts repeat exactly for a seed. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from check import check_reply
from tracing import Tracer
from workloads import WORKLOADS, Corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MIN_REQUESTS = 100
# Stop adding requests after this long even below MIN_REQUESTS, so a
# slow program still ends well inside the three-minute limit of a run.
HARD_STOP_S = 120.0
SETUP_SPAWNS = 21
SETUP_ARGV = ["divide", "--dividend", "x^4", "--divisor", "x^2-x-1"]
SETUP_REPLY = "quotient: x^2 + x + 2\nremainder: 3x + 2\n"
# Times are scaled to the speed at which a probe sample of reference_kernel
# takes this long: between its fast and slow levels on a shared 2-vCPU
# x86-64 container with CPython 3.11.7.
REF_NOMINAL_MS = 0.25
PROBE_EVERY_S = 0.02
PROBE_BURST = 5
_DIGITS = re.compile(r"\d+")
_WIDE_A, _WIDE_B = 3 ** 1400, 5 ** 1200  # about 2200 and 2800 bits

UNITS = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "throughput_rps": "req/s",
    "ok_share": "ratio",
    "peak_rss_mb": "MiB",
}


# Failure classes reported as per-layer counts in the traced run; a crash
# of any other exception type still counts under fail.crash.
FAIL_CLASSES = ("fail.exit1", "fail.exit2", "fail.exit3", "fail.inexact", "fail.crash.ValueError")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_polydiv():
    """Import cli, polycore, closedform and detengine from ./src only."""
    if not (SRC / "polydiv" / "cli.py").is_file():
        raise BenchError(f"no polydiv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polydiv
    from polydiv import cli, closedform, detengine, polycore

    if Path(polydiv.__file__).resolve().parent != SRC / "polydiv":
        raise BenchError(f"polydiv was imported from {polydiv.__file__}, not {SRC}")
    return cli, polycore, closedform, detengine


@dataclass
class Reply:
    code: int | str  # exit code, or "crash.<ExceptionType>"
    stdout: str
    stderr: str
    ns: int


def invoke(main, argv) -> Reply:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the CLI let an exception escape: a crash
        code = f"crash.{type(exc).__name__}"
        err.write(f"{type(exc).__name__}: {exc}")
    ns = time.perf_counter_ns() - start
    return Reply(code, out.getvalue(), err.getvalue(), ns)


@dataclass
class Tally:
    """Failures by class: fail.exit<N>, fail.crash.<Type>, fail.inexact."""

    attempted: int = 0
    classes: dict = field(default_factory=dict)

    def add(self, request, reply: Reply) -> None:
        index = self.attempted
        self.attempted += 1
        if isinstance(reply.code, str):
            cls, detail = f"fail.{reply.code}", reply.stderr
        elif reply.code != 0:
            cls, detail = f"fail.exit{reply.code}", reply.stderr
        else:
            why = check_reply(request, reply.stdout)
            if why is None:
                return
            cls, detail = "fail.inexact", why
        entry = self.classes.setdefault(
            cls, {"count": 0, "first_request": index, "first_argv": list(request.argv), "detail": detail[-300:]}
        )
        entry["count"] += 1

    def count(self, cls: str) -> int:
        return self.classes.get(cls, {}).get("count", 0)

    @property
    def failed(self) -> int:
        return sum(entry["count"] for entry in self.classes.values())


def spawn_setup() -> float:
    """Wall time of a fresh interpreter importing polydiv.cli and serving
    one tiny divide: the cost every command-line call pays."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from polydiv import cli; "
        "sys.exit(cli.main(sys.argv[2:]))"
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC), *SETUP_ARGV],
        capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout != SETUP_REPLY:
        raise BenchError(f"set-up divide failed: exit {proc.returncode}, {proc.stderr.strip()!r}")
    return elapsed


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) density at each
    rank (midpoint rule). With a hundred samples it varies less from run
    to run than any single order statistic."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p - 1, (n + 1) * (1 - p) - 1
    logs = [a * math.log((i + 0.5) / n) + b * math.log1p(-(i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def reference_kernel() -> None:
    """Fixed pure-Python work in the mix polydiv does: small and
    two-thousand-bit Fraction arithmetic, decimal conversion, regex and JSON."""
    acc = Fraction(0)
    for k in range(1, 25):
        acc += Fraction(k * 1000003, k + 7) * Fraction(3, k + 1)
    wide = Fraction(_WIDE_A, _WIDE_B + 2) * Fraction(_WIDE_B, _WIDE_A + 6)
    text = str(wide.numerator)
    _DIGITS.fullmatch(text)
    json.dumps([str(acc), text[:50]])


class SpeedProbe:
    """Tracks the machine's speed while requests run.

    On a shared machine the same request can take 1.5 times as long from
    one minute to the next. The probe times reference_kernel between
    requests, at most every PROBE_EVERY_S; a sample is the median of
    PROBE_BURST timings back to back. scale() turns a time
    measured after sample `mark` into nominal milliseconds: the time it
    would take where the kernel takes REF_NOMINAL_MS.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last = -math.inf

    def mark(self) -> int:
        now = time.perf_counter()
        if now - self.last >= PROBE_EVERY_S:
            self.samples.append(statistics.median(self._time_kernel() for _ in range(PROBE_BURST)))
            self.last = now
        return len(self.samples)

    @staticmethod
    def _time_kernel() -> float:
        start = time.perf_counter_ns()
        reference_kernel()
        return (time.perf_counter_ns() - start) / 1e6

    def scale(self, mark: int) -> float:
        """Nominal over measured speed around `mark`: the median of the
        three samples before it and the two after."""
        return REF_NOMINAL_MS / statistics.median(self.samples[max(mark - 3, 0):mark + 2])


def run_measured(cli, corpus: Corpus, seconds: float, min_requests: int = MIN_REQUESTS,
                 spawns: int = SETUP_SPAWNS):
    """Serve requests for `seconds` and at least `min_requests`. The set-up
    spawns are spread over the same interval, between requests, so that
    they see the same machine load as the requests do. Every time is
    reported at nominal speed (see SpeedProbe); the raw figures go to the
    report file."""
    spawn_setup()  # warms the bytecode cache; not counted
    probe = SpeedProbe()
    tally = Tally()
    # Wall times and probe marks, kept compact as peak RSS is measured.
    latency_ms, latency_mark = array("d"), array("q")
    setups = []  # (wall time, probe mark)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = tally.attempted >= min_requests and elapsed >= seconds
        if done or elapsed > HARD_STOP_S:
            break
        if len(setups) < spawns and len(setups) * seconds <= spawns * elapsed:
            setups.append((spawn_setup(), probe.mark()))
        request = corpus.request(tally.attempted)
        mark = probe.mark()
        reply = invoke(cli.main, request.argv)
        tally.add(request, reply)
        latency_ms.append(reply.ns / 1e6)
        latency_mark.append(mark)
    # Before the statistics below, whose lists grow with the request count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < spawns:
        setups.append((spawn_setup(), probe.mark()))
    probe.mark()
    probe.mark()  # the samples after the last request
    nominal = [ms * probe.scale(mark) for ms, mark in zip(latency_ms, latency_mark)]
    succeeded = tally.attempted - tally.failed
    metrics = {
        "setup_s": statistics.median(s * probe.scale(mark) for s, mark in setups),
        "latency_ms.p50": quantile(nominal, 0.5),
        "latency_ms.p90": quantile(nominal, 0.9),
        "throughput_rps": succeeded / (sum(nominal) / 1e3),
        "ok_share": succeeded / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    wall = list(latency_ms)
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "latency_ms.p50": quantile(wall, 0.5),
        "latency_ms.p90": quantile(wall, 0.9),
        "throughput_rps": succeeded / (sum(wall) / 1e3),
        "reference_kernel_ms.p50": statistics.median(probe.samples),
    }
    return metrics, tally, raw, nominal


def run_traced(modules, corpus: Corpus, count: int):
    """Serve the first `count` requests, each once untraced and once
    traced, back to back so both see the same machine load. The two
    replies must be byte-identical."""
    cli = modules[0]
    tally = Tally()
    tracer = Tracer()
    differing = []
    plain_ns = traced_ns = 0
    for index in range(count):
        request = corpus.request(index)
        plain = invoke(cli.main, request.argv)
        tally.add(request, plain)
        tracer.request_id = index
        with tracer.installed(*modules) as traced_main:
            traced = invoke(traced_main, request.argv)
        tracer.end_request()
        if (plain.code, plain.stdout, plain.stderr) != (traced.code, traced.stdout, traced.stderr):
            differing.append(index)
        plain_ns += plain.ns
        traced_ns += traced.ns
    metrics = tracer.summary()
    metrics["trace.overhead"] = traced_ns / plain_ns
    for cls in FAIL_CLASSES:
        metrics[cls] = tally.count(cls)
    metrics["fail.crash"] = sum(tally.count(cls) for cls in tally.classes if cls.startswith("fail.crash."))
    return metrics, tally, tracer, differing


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name == "trace.overhead" or name.endswith("calls_per_ratio"):
        return "ratio"
    if name.endswith("bits.max"):
        return "bits"
    return "count"


def result_line(metrics: dict, units: dict, tally: Tally, differing: list) -> dict:
    """The final JSON object; a reply is wrong when it claims success and
    fails the exactness check, or changes under tracing."""
    return {
        "correct": tally.count("fail.inexact") == 0 and not differing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    corpus = Corpus(workload, args.seed)
    differing: list = []
    try:
        modules = load_polydiv()
        if args.trace:
            metrics, tally, tracer, differing = run_traced(modules, corpus, workload.trace_requests)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, tally, raw, nominal = run_measured(modules[0], corpus, args.seconds)
            units = UNITS
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "metrics": metrics, "failures": tally.classes}
    print(f"{args.workload} seed {args.seed}: {tally.attempted} requests; report in {stem}.json")
    if args.trace:
        tracer.write_spans(f"{stem}.spans.jsonl")
        report["replies_differing_under_trace"] = differing
        shares = ", ".join(f"{group} {share:.2f}" for group, share in tracer.shares().items())
        print(f"share of traced self time: {shares}")
    else:
        report["wall_metrics"] = raw
        report["nominal_latency_ms"] = nominal
        print("wall-clock figures: " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    for cls, entry in sorted(tally.classes.items()):
        print(f"{cls}: {entry['count']} (first at request {entry['first_request']}: {entry['detail'][:120]!r})")
    if differing:
        print(f"traced replies differ from untraced ones at requests {differing[:10]}")
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result_line(metrics, units, tally, differing)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
