"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _series_output(partial: str, tail_high: str, exact: bool = True, claim: str = "4") -> str:
    return json.dumps({"target_id": "lemma-c(r=4)", "N": 10000, "partial": partial,
                       "exact": exact, "tail_low": "0", "tail_high": tail_high,
                       "claimed_limit": claim})


def test_fixture_fail_gives_positive_fail_ratio():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workloads.SELFTEST, "--seconds", "1"])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_gate_checks_exit_code_count_exact_flag_and_containment():
    lemma = workloads.build("series", 0)[0]
    good = _series_output("399/100", "2/100")
    assert workloads.judge(lemma, 0, good).failed == 0
    assert workloads.judge(lemma, 1, good).failed == 1
    assert workloads.judge(lemma, 0, _series_output("399/100", "1/1000")).failed == 1
    assert workloads.judge(lemma, 0, _series_output("399/100", "2/100", exact=False)).failed == 1
    assert workloads.judge(lemma, 0, _series_output("399/100", "2/100", claim="5")).failed == 1
    assert workloads.judge(lemma, 0, "Traceback").failed == 1

    sweep = workloads.build("sweep", 0)[0]
    expected = sum(sweep.expect["counts"].values())
    assert expected == 6172
    line = json.dumps({"identity_id": "eq15", "status": "pass"})
    verdict = workloads.judge(sweep, 0, line + "\n")
    assert (verdict.attempted, verdict.failed) == (expected, expected)

    lines = [json.dumps({"identity_id": key, "status": "pass"})
             for key, count in sweep.expect["counts"].items() for _ in range(count)]
    assert workloads.judge(sweep, 0, "\n".join(lines)).failed == 0
    lines[0] = lines[0].replace('"pass"', '"skipped"')
    assert workloads.judge(sweep, 0, "\n".join(lines)).failed == 1
    assert workloads.judge(sweep, 1, "\n".join(lines)).failed == expected


def test_byte_mismatch_between_passes_fails():
    inv = workloads.build("series", 0)[0]
    good = _series_output("399/100", "2/100")
    same = _series_output("399/100", "2/100") + " "
    passes = [{"results": [[0, good, ""]]}, {"results": [[0, same, ""]]}]
    attempted, failed, problems, _ = run.verify_passes([inv], passes)
    assert (attempted, failed) == (2, 1)
    assert "differs" in problems[0]


def test_references_are_exact():
    x = Fraction(1, 2)
    assert workloads.log_moment_exact(0, 0, x) == 1 / (x + 1)
    assert workloads.log_moment_exact(0, 1, x) == -1 / (x + 1) ** 2
    assert workloads.cube_exact(1, 2) == Fraction(3, 4)


def test_seed_zero_is_the_documented_default_and_seeds_repeat():
    assert workloads.build("sweep", 0)[0].argv == ("verify", "all")
    assert workloads.mc_seeds(0) == (42, 11, 7)
    assert len(workloads.build("float", 0)) == 2 + 1476 + 3
    assert workloads.build("series", 0) == workloads.build("series", 7)
    for seed in (1, 2, 99):
        xs = workloads.sweep_x(seed)
        assert xs == workloads.sweep_x(seed)
        assert len(set(xs)) == 5
        assert all(-1 < x <= 3 for x in xs)
        assert [x.denominator for x in xs] == [1, 2, 1, 3, 100]
    assert workloads.sweep_x(1) != workloads.sweep_x(2)
    assert workloads.mc_seeds(1) != workloads.mc_seeds(2)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "name": "a", "start": 0, "end": 100, "parent": 0},
        {"id": 2, "name": "b", "start": 10, "end": 50, "parent": 1},
        {"id": 3, "name": "b", "start": 30, "end": 70, "parent": 1},  # overlaps id 2
        {"id": 4, "name": "c", "start": 20, "end": 25, "parent": 2},
    ]
    own = tracing.self_times(spans)
    assert own == {1: 40, 2: 35, 3: 40, 4: 5}


def test_spans_on_pool_threads_are_parented_to_the_main_thread():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: threading.get_ident())

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda _: inner(), range(4)))

    tracer.wrap("outer", fan_out)()
    by_name = {}
    for span_id, name, start, end, parent, thread in tracer.spans:
        by_name.setdefault(name, []).append((span_id, parent))
    (outer_id, outer_parent), = by_name["outer"]
    assert outer_parent == 0
    assert [parent for _, parent in by_name["inner"]] == [outer_id] * 4


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    rows = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert rows == tracing.PER_LAYER
