"""Benchmark runner for harmonic-beta.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

Runs passes of one workload (``sweep``, ``series``, ``float``; ``all`` runs
the three in turn; ``fixture-fail`` is the gate's self-test) through
``harmonic_beta.cli.run``, each pass in a fresh child interpreter, one at a
time, for at least ``--seconds`` seconds and at least two passes.  Every
verdict of every pass is checked, and repeated passes must print
byte-identical output.  Human-readable lines go to stdout first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A pass's wall time is printed but not bounded:
the bounded time is its CPU time, which leaves out hypervisor steal and the
waits of the program's thread pool for a core on a shared host.  A results
file with the raw samples and the environment goes to ``.perfbench_out/`` in
the checkout.

Must be run from a checkout that holds ``src/harmonic_beta``; without it the
runner exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_PASSES = 2
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
#: No pass starts when the last pass's duration would carry the run past this.
RUN_LIMIT_S = 150.0
#: A child still running this long after the run started is killed.
KILL_AFTER_S = 170.0

END_TO_END = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Measured and printed beside the end-to-end metrics, but not bounded.
UNBOUNDED = {"wall_s": "s"}
PER_LAYER_UNITS = {name: unit for name, unit, _ in tracing.PER_LAYER}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HARMONIC_ID_THREADS", None)  # verify all keeps its default pool
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _wait(proc: subprocess.Popen, started: float) -> tuple[int, float]:
    """Reap ``proc``; return its exit code and its own peak RSS in MB."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() - started > KILL_AFTER_S:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"child {proc.args} ran past {KILL_AFTER_S} s and was killed")
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def run_child(tag: str, argvs: list, started: float, traced: bool = False) -> dict:
    """Run child.py over ``argvs`` in a fresh interpreter and return its record."""
    spec = OUT_DIR / f"{tag}.spec.json"
    out = OUT_DIR / f"{tag}.out.json"
    spans = OUT_DIR / f"{tag}.spans.jsonl"
    log = OUT_DIR / f"{tag}.log"
    spec.write_text(json.dumps(argvs))
    command = [sys.executable, str(CHILD), str(spec), str(out)] + ([str(spans)] if traced else [])
    with open(log, "w") as handle:
        proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(), stdout=handle, stderr=handle)
        code, rss_mb = _wait(proc, started)
    if code != 0:
        raise BenchError(f"child exited with {code}: {log.read_text().strip()[-2000:]}")
    record = json.loads(out.read_text())
    record["peak_rss_mb"] = rss_mb
    record["spans"] = str(spans) if traced else None
    return record


def import_times(started: float) -> dict[str, float]:
    """Median ``-X importtime`` figures over fresh interpreters."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-c", "import harmonic_beta.cli"],
            cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _, stderr = proc.communicate(timeout=max(1.0, KILL_AFTER_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("import timing ran out of time")
        if proc.returncode != 0:
            raise BenchError(f"import failed: {stderr.strip()[-2000:]}")
        samples.append(tracing.parse_importtime(stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def verify_passes(invocations: list, passes: list[dict]) -> tuple[int, int, list[str], dict]:
    """Judge every invocation of every pass; a pass whose output differs from
    pass 0's fails all of that invocation's verdicts.  Drops the raw output."""
    attempted = failed = 0
    problems: list[str] = []
    extras: dict[str, float] = {}
    digests = [hashlib.sha256(out.encode()).digest() for _, out, _ in passes[0]["results"]]
    for index, record in enumerate(passes):
        record["verdicts"] = [0, 0]
        for inv, (code, out, err), digest in zip(invocations, record.pop("results"), digests):
            verdict = workloads.judge(inv, code, out)
            if verdict.problem is None and hashlib.sha256(out.encode()).digest() != digest:
                verdict.failed = verdict.attempted
                verdict.problem = "output differs from pass 0"
            if verdict.problem is not None:
                detail = f" ({err.strip().splitlines()[-1]})" if err.strip() else ""
                problems.append(f"pass {index} {' '.join(inv.argv)}: {verdict.problem}{detail}")
            record["verdicts"][0] += verdict.attempted
            record["verdicts"][1] += verdict.failed
            for key, value in verdict.extras.items():
                extras[key] = max(extras.get(key, 0.0), value)
        attempted += record["verdicts"][0]
        failed += record["verdicts"][1]
    return attempted, failed, problems, extras


def run_workload(name: str, seed: int, seconds: int, trace: bool, started: float) -> dict:
    invocations = workloads.build(name, seed)
    argvs = [list(inv.argv) for inv in invocations]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    passes: list[dict] = []
    measure_start = time.monotonic()
    while True:
        count = len(passes)
        if count >= MIN_PASSES and time.monotonic() - measure_start >= seconds:
            break
        if count and time.monotonic() - started + passes[-1]["wall_s"] * 1.2 > RUN_LIMIT_S:
            break
        traced = trace and count % 2 == 1
        passes.append(run_child(f"{tag}-pass{count}", argvs, started, traced))
    if trace and len(passes) < 2:
        raise BenchError("no time left for a traced pass")

    setup = [p["setup_s"] for p in passes]
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_child(f"{tag}-setup{len(setup)}", [], started)["setup_s"])

    attempted, failed, problems, extras = verify_passes(invocations, passes)

    untraced = [p for p in passes if p["spans"] is None]
    summary = {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "extras": extras,
        "samples": {
            "cpu_s": [p["cpu_s"] for p in untraced],
            "wall_s": [p["wall_s"] for p in untraced],
            "setup_s": setup,
            "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        },
    }
    summary["end_to_end"] = {
        key: statistics.median(values) for key, values in summary["samples"].items()
    }
    if trace:
        summary["per_layer"] = _per_layer(passes, extras, started)
    summary["environment"] = {
        **passes[0]["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "traced_passes": len(passes) - len(untraced),
        "setup_samples": len(setup),
    }
    summary["passes"] = passes
    summary["argv"] = argvs
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"results-{tag}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return summary


def _per_layer(passes: list[dict], extras: dict, started: float) -> dict[str, float]:
    traced = [p for p in passes if p["spans"] is not None]
    untraced = [p for p in passes if p["spans"] is None]
    per_pass = []
    for record in traced:
        spans, counters = tracing.read_trace(record["spans"])
        per_pass.append(tracing.layer_metrics(spans, counters, record["wall_s"]))
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1
    metrics["series_lab.bracket_width_rel"] = extras.get("bracket_width_rel", 0.0)
    metrics["float_oracle.quad_max_rel_err"] = extras.get("oracle_max_rel_err", 0.0)
    metrics["float_oracle.mc_max_z"] = extras.get("mc_max_z", 0.0)
    metrics.update(import_times(started))
    return {name: metrics[name] for name, _, _ in tracing.PER_LAYER}


def _print_summary(summary: dict, trace: bool) -> None:
    name = summary["workload"]
    env = summary["environment"]
    print(f"# {name}: seed {env['seed']}, {env['passes']} passes "
          f"({env['traced_passes']} traced), Python {env['python']}, nproc {env['nproc']}")
    counts = {key: len(values) for key, values in summary["samples"].items()}
    for key, unit in {**END_TO_END, **UNBOUNDED}.items():
        print(f"{name:8} {key:20} {summary['end_to_end'][key]:.6g} {unit}"
              f"  (median of {counts[key]})")
    ratio = summary["failed"] / summary["attempted"]
    print(f"{name:8} {'fail_ratio':20} {ratio:.6g}  "
          f"({summary['failed']} of {summary['attempted']} verdicts)")
    for key, value in summary["extras"].items():  # bracket_width_rel, oracle_max_rel_err, mc_max_z
        print(f"{name:8} {key:20} {value:.6g}")
    if trace:
        for key, value in summary["per_layer"].items():
            print(f"{name:8} {key:48} {value:.6g} {PER_LAYER_UNITS[key]}")
    for problem in summary["problems"][:20]:
        print(f"{name:8} FAIL {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all", workloads.SELFTEST])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)  # exact partial sums run to tens of thousands of digits
    if not (ROOT / "src" / "harmonic_beta" / "cli.py").is_file():
        print(f"error: no src/harmonic_beta under {ROOT}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    summaries = []
    try:
        for name in names:  # each workload gets its own time limit
            summaries.append(run_workload(name, args.seed, args.seconds, trace, time.monotonic()))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics: dict[str, dict] = {}
    for summary in summaries:
        _print_summary(summary, trace)
        prefix = f"{summary['workload']}." if len(summaries) > 1 else ""
        units = PER_LAYER_UNITS if trace else END_TO_END
        values = summary["per_layer"] if trace else summary["end_to_end"]
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
