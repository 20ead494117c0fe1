#!/usr/bin/env python3
"""trajcurate benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cluster-10k --seed 0 --seconds 45 --trace 0

Builds the workload's inputs from the seed (set-up, timed several times),
then runs the real ``trajcurate`` CLI from ``src/`` as a fresh child
process, one at a time (a closed loop with one client): one child, and
more while another is expected to end within ``--seconds``. Each child is
reaped with ``os.wait4`` so its wall time, peak RSS and CPU time are its
own. After the timed loop the first child's artifacts are checked and
every later child's artifacts must be byte-identical to them.

With ``--trace 1`` one untraced child is followed by one traced child
(the CLI run in-process under ``tracing.py``), and the per-layer metrics
replace the end-to-end ones; the spans go to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import uuid
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import DISPATCH_PARTS, Tracer, layer_metrics, unit_of

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 4.0
SETUP_MAX_REPEATS = 15
CHILD_TIMEOUT_S = 170.0

E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    out: Path
    digests: dict


def _spawn(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, object]:
    """Run one child to completion; returns (exit code, wall seconds, rusage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(log, "wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _digests(out: Path, names) -> dict:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() if (out / name).is_file() else None
        for name in names
    }


def run_child(w, work: Path, k: int, traced_by: tuple | None = None) -> Child:
    """Run the workload's command once; ``traced_by`` = (spans path, run id, parent span)."""
    out = work / f"out{k}"
    out.mkdir()
    prefix = [sys.executable, "-m", "trajcurate.cli"]
    if traced_by is not None:
        prefix = [sys.executable, str(HERE / "traced_cli.py"), *map(str, traced_by), "--"]
    code, wall, usage = _spawn(prefix + w.argv(out.name), work, work / f"out{k}.log")
    return Child(
        code=code,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        out=out,
        digests=_digests(out, w.artifacts()),
    )


def judge(w, inputs, children: list[Child], seed: int) -> list[str]:
    """Check the first child's artifacts; later children must match them byte for byte."""
    from workloads import CheckFailed  # imports trajcurate, so only once src/ is on sys.path

    failures = []
    first = children[0]
    if first.code != 0:
        failures.append(f"child 0 exited with {first.code}")
    else:
        try:
            w.check(inputs, first.out, seed)
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            failures.append(f"child 0 output check failed: {type(exc).__name__}: {exc}")
    for k, child in enumerate(children[1:], start=1):
        if child.code != 0:
            failures.append(f"child {k} exited with {child.code}")
        elif child.digests != first.digests:
            failures.append(f"child {k} artifacts differ from child 0")
    return failures


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def run_workload(w, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run and check one workload; returns the result object to print."""
    run_id = uuid.uuid4().hex
    tracer = Tracer(run_id)
    work.mkdir(parents=True)

    # set-up is repeated (at least SETUP_MIN_REPEATS times and SETUP_MIN_SECONDS in all)
    # so its median is steady even when one set-up takes a fraction of a second
    setups: list[float] = []
    while True:
        start = perf_counter()
        inputs = w.setup(seed, work, tracer)
        setups.append(perf_counter() - start)
        if trace or len(setups) >= SETUP_MAX_REPEATS or (
            len(setups) >= SETUP_MIN_REPEATS and sum(setups) >= SETUP_MIN_SECONDS
        ):
            break

    loop_start = perf_counter()
    children = [run_child(w, work, 0)]
    if trace:
        spans_path = work / "spans.json"
        with tracer.span("bench.traced_child"):
            children.append(run_child(w, work, 1, (spans_path, run_id, tracer.spans[-1]["id"])))
        if children[1].code != 0:
            log = (work / "out1.log").read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"traced child exited with {children[1].code}:\n{log[-2000:]}")
        with open(spans_path, encoding="utf-8") as fh:
            tracer.spans.extend(json.load(fh))
    else:
        while perf_counter() - loop_start + children[-1].wall_s <= seconds:
            children.append(run_child(w, work, len(children)))
            shutil.rmtree(children[-1].out)  # only its digests are compared

    failures = judge(w, inputs, children, seed)
    for message in failures:
        print(f"FAILED {w.name} seed {seed}: {message}", file=sys.stderr)
    walls = [c.wall_s for c in children]

    if trace:
        names = {s["name"] for s in tracer.spans}
        missing = [name for name in w.required_spans if name not in names]
        if missing:
            raise RuntimeError(f"traced run recorded no span for {missing}: a wrapped call moved")
        values = layer_metrics(tracer.spans)
        values["cli.cpu_s"] = children[0].cpu_s
        values["trace.overhead_s"] = children[1].wall_s - children[0].wall_s
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{w.name}-seed{seed}.json")
        units = {name: unit_of(name) for name in values}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(c.rss_mb for c in children),
            "setup_s": statistics.median(setups),
        }
        units = E2E_UNITS
    return {
        "correct": not failures,
        "attempted": len(children),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "walls": walls,
        "setups": len(setups),
    }


def report(name: str, seed: int, result: dict, trace: bool) -> None:
    """Human-readable lines; the JSON result line is printed by main."""
    walls = result["walls"]
    print(f"workload {name} seed {seed}: {result['attempted']} runs, {result['failed']} failed, "
          f"runs_failed_frac {result['failed'] / result['attempted']:.4g}")
    metrics = result["metrics"]
    if trace:
        dispatch = metrics["cli.dispatch_s"]["value"] or 1.0
        for key, m in metrics.items():
            share = f"  ({m['value'] / dispatch:6.1%} of dispatch)" if key in DISPATCH_PARTS else ""
            print(f"  {key:24s} {m['value']:14.6g} {m['unit']}{share}")
        return
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile (needs >= 11 samples)"
    print(f"  wall_s        median {metrics['wall_s']['value']:.4f} s over n={len(walls)}; {tail_text}")
    print(f"  peak_rss_mb   median {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"  setup_s       median {metrics['setup_s']['value']:.4f} s over {result['setups']} set-ups")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its child on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "trajcurate" / "cli.py").is_file():
        print(f"error: no trajcurate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args.workload, args.seed, result, bool(args.trace))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
