#!/usr/bin/env python3
"""gridclear benchmark.

One single-threaded, closed-loop client (one op in flight) calls
``gridclear.cli.main`` in-process on generated or bundled scenario files,
checks every op's output, and prints the metrics as one JSON object on the
last line of standard output.  Run from the repository root:

    python3 perfbench/run.py --workload nodal_mesh --seed 0 --seconds 30 --trace 0

``--trace 0`` gives the end-to-end metrics of an untraced run.  ``--trace 1``
gives the per-layer metrics: each op runs untraced and again with every
public gridclear function wrapped from outside (see ``spantrace.py``).  See ``README.md`` for the
workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
# fresh interpreters per run, spread over the run so that host speed, which
# drifts over seconds on a shared machine, is sampled like the ops are;
# setup_s is their median
SETUP_RUNS = 9
P90_MIN_BEYOND = 10
MIN_OPS = 10 * P90_MIN_BEYOND  # a timed run goes on past its time until p90 has enough samples beyond it
MAX_OVERRUN = 3  # ... but never past this many times its time

sys.path.insert(0, str(HERE))
import spantrace  # noqa: E402
import workloads  # noqa: E402
from workloads import Output  # noqa: E402


def import_cli():
    """Import the program from this checkout's sources, never from an
    installed copy."""
    if not (SRC / "gridclear" / "cli.py").is_file() or not SCENARIOS.is_dir():
        sys.exit(f"error: {ROOT} holds no gridclear sources (src/gridclear, scenarios/)")
    sys.path.insert(0, str(SRC))
    import gridclear.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "gridclear":
        sys.exit(f"error: imported gridclear from {cli.__file__}, not from {SRC}")
    return cli


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def digest(out: Output) -> str:
    h = hashlib.sha256(f"rc={out.rc}\n{out.text}\n".encode())
    for name, data in sorted(out.files.items()):
        h.update(f"{name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()[:32]


def execute(cli, op, out_dir: Path, tracer=None, op_id: int = 0) -> tuple[float, Output]:
    """Run one op, writing its reports to ``out_dir``; only the
    ``cli.main`` call is timed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.environ["GRIDCLEAR_OUT"] = str(out_dir)  # every subcommand writes its reports there
    buf = io.StringIO()
    rc = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if tracer is None:
                rc = cli.main(op.argv)
            else:
                rc = tracer.run_op(op_id, cli.main, op.argv)
    except Exception as exc:  # an escaped exception fails the op, not the benchmark
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
    return seconds, Output(rc, buf.getvalue().replace(str(out_dir), "<out>"), files, error)


def failures(op, out: Output, expected: dict) -> list[str]:
    """Why an op's result is wrong; empty when it is right."""
    if out.error is not None:
        return [f"exception: {out.error}"]
    errors = []
    want = op.expected_rc if op.expected_rc is not None else expected["exit_codes"].get(op.key)
    if want is None:
        errors.append("no recorded exit code")
    elif out.rc != want:
        errors.append(f"exit code {out.rc}, expected {want}")
    recorded = expected["digests"].get(op.key)  # recorded for the default seed only
    if recorded is not None and digest(out) != recorded:
        errors.append("reports differ from the recorded digest")
    try:
        errors += op.check(out)
    except (KeyError, ValueError) as exc:
        errors.append(f"unreadable output: {exc!r}")
    return errors


class Client:
    """The closed-loop client: runs ops one after another and keeps what
    was wrong with each attempt that failed."""

    def __init__(self, cli, expected: dict, out_dir: Path):
        self.cli, self.expected, self.out_dir = cli, expected, out_dir
        self.attempted = 0
        self.failed: dict[int, list[str]] = {}  # attempt number -> what was wrong

    def fail(self, attempt: int, key: str, errors: list[str]) -> None:
        self.failed.setdefault(attempt, []).extend(f"{key}: {e}" for e in errors)

    def run(self, op, tracer=None, op_id: int = 0) -> tuple[float, str]:
        """Run and check one op; returns its time and output digest."""
        seconds, out = execute(self.cli, op, self.out_dir, tracer, op_id)
        self.attempted += 1
        errors = failures(op, out, self.expected)
        if errors:
            self.fail(self.attempted - 1, op.key, errors)
        return seconds, digest(out)

    def run_for(self, stream, seconds: float, min_ops: int, limit: float):
        """Take ops from ``stream`` until ``seconds`` have passed and at
        least ``min_ops`` ops are done, or ``limit`` seconds have passed;
        returns ``(op, seconds, digest)`` per op."""
        done = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if done and elapsed >= seconds and (len(done) >= min_ops or elapsed >= limit):
                break
            op = next(stream)
            done.append((op, *self.run(op)))
            for p in op.inputs:
                p.unlink()
        return done


def import_seconds(cmd) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True)
    return time.perf_counter() - t0


def end_to_end(client: Client, stream, seconds: float) -> tuple[dict, list[str]]:
    """Timed ops in ``SETUP_RUNS`` slices, each preceded by one fresh
    interpreter importing gridclear.cli (not part of any op's time)."""
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import gridclear.cli"]
    import_seconds(cmd)  # warm the file cache
    client.run(next(stream))  # warm-up: lazy imports and first-call set-up, not timed
    setup, lat = [], []
    start = time.perf_counter()
    for i in range(SETUP_RUNS):
        setup.append(import_seconds(cmd))
        last = i == SETUP_RUNS - 1
        left = seconds - (time.perf_counter() - start)
        done = client.run_for(stream, left / (SETUP_RUNS - i), max(1, MIN_OPS - len(lat)) if last else 1,
                              MAX_OVERRUN * seconds - (time.perf_counter() - start))
        lat += [s * 1000 for _, s, _ in done]
    lat.sort()
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    beyond = sum(1 for x in lat if x > p90)
    notes = [] if beyond >= P90_MIN_BEYOND else \
        [f"warning: p90 has {beyond} samples beyond it, fewer than {P90_MIN_BEYOND}"]
    n = f"{len(lat)} ops"
    metrics = {
        "ops_per_s": (len(lat) / (sum(lat) / 1000), "1/s", n),
        "latency_p50_ms": (statistics.median(lat), "ms", n),
        "latency_p90_ms": (p90, "ms", f"{n}, {beyond} beyond"),
        "setup_s": (statistics.median(setup), "s", f"{len(setup)} imports"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "1 process"),
        "ok_op_ratio": (1 - len(client.failed) / client.attempted, "ratio", f"{client.attempted} attempts"),
    }
    return metrics, notes


def per_layer(client: Client, stream, seconds: float, spans_path: Path) -> tuple[dict, list[str]]:
    """Each op runs twice, untraced and traced, in alternating order so that
    both see the same host speed; the traced runs give the spans."""
    from gridclear import commitment

    client.run(next(stream))  # warm-up, as in the untraced run
    tracer = spantrace.Tracer()
    plain = traced = 0.0
    wrapped: list[str] = []
    start = time.perf_counter()
    for i in itertools.count():
        if i and time.perf_counter() - start >= seconds:
            break
        op = next(stream)
        digests = {}
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                wrapped = tracer.install()
                try:
                    took, digests[True] = client.run(op, tracer, i)
                finally:
                    tracer.restore()
                traced += took
                traced_attempt = client.attempted - 1
            else:
                took, digests[False] = client.run(op)
                plain += took
        if digests[True] != digests[False]:
            client.fail(traced_attempt, op.key, ["traced output differs from untraced output"])
        for p in op.inputs:
            p.unlink()
    left = spantrace.leftover_wrappers()
    if left:
        client.fail(traced_attempt, "trace", [f"bindings not restored: {left}"])
    tracer.write(spans_path)
    raw = spantrace.summarize(tracer.spans, commitment)
    raw["trace.overhead_ratio"] = traced / plain
    notes = [f"wrapped {len(wrapped)} bindings; {len(tracer.spans)} spans written to {spans_path}"]
    base = f"{raw['op.count']} traced ops"
    return {k: (raw[k], unit, base) for k, (unit, _) in spantrace.PER_LAYER.items()}, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    expected = load_expected()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        client = Client(cli, expected, work / "out")
        stream = workloads.WORKLOADS[args.workload](args.seed, work / "in", SCENARIOS)
        if args.trace:
            metrics, notes = per_layer(client, stream, args.seconds, WORK / f"spans-{args.workload}.jsonl")
        else:
            metrics, notes = end_to_end(client, stream, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for attempt, errors in sorted(client.failed.items())[:20]:
        print(f"FAILED attempt {attempt}: {'; '.join(errors)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{client.attempted} ops attempted, {len(client.failed)} failed")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit:6s} ({samples})")
    print(json.dumps({
        "correct": not client.failed,
        "attempted": client.attempted,
        "failed": len(client.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
