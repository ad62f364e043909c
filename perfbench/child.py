"""One benchmark pass in a fresh interpreter.

Usage: child.py SPEC OUT [SPANS]

SPEC is a JSON list of argv lists.  The child times importing
``harmonic_beta.cli`` plus building its parser (the set-up sample), then runs
every argv through ``harmonic_beta.cli.run`` in order (the timed pass, in
wall time and in CPU time of all the process's threads), and writes the
timings, exit codes and captured output to OUT as JSON.  With
SPANS it first installs the boundary tracer and writes the spans there.  An
empty SPEC gives a set-up sample only.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(spec_path: str, out_path: str, spans_path: str | None) -> int:
    with open(spec_path) as handle:
        argvs = json.load(handle)

    start = time.perf_counter()
    from harmonic_beta import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start
    source = Path(cli.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"harmonic_beta was imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3

    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    results = []
    start = time.perf_counter()
    cpu_start = time.process_time()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except Exception:  # a crash is a failed verdict, not a broken benchmark
                code = None
                err.write(traceback.format_exc())
        results.append([code, out.getvalue(), err.getvalue()])
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start

    versions = {"python": sys.version.split()[0]}
    for name in ("numpy", "scipy"):
        module = sys.modules.get(name)
        versions[name] = getattr(module, "__version__", None)
    with open(out_path, "w") as handle:
        json.dump(
            {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "versions": versions,
             "results": results},
            handle,
        )
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else None))
