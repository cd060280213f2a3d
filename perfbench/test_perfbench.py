"""Tests of the benchmark's own machinery: the traced-run wrapper, the span
arithmetic and the input generator.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import hopfgen
import run
import tracer


def cli(args, trace_path=None, mode="spans"):
    if trace_path is None:
        cmd = [sys.executable, "-m", "hopfkit.cli", *args]
    else:
        cmd = [sys.executable, run.TRACER, mode, str(trace_path), *args]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=run.ROOT, env=run.env(), capture_output=True,
                          timeout=120)
    return done.returncode, done.stdout, time.perf_counter() - t0


@pytest.fixture(scope="module")
def uq_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "uq.json"
    rc, out, wall = cli(["construct", "uq_sl2"], path)
    with open(path, encoding="utf-8") as fh:
        return rc, out, wall, json.load(fh)


def test_traced_job_output_identical(uq_trace, tmp_path):
    rc, out, _, _ = uq_trace
    assert (rc, out) == cli(["construct", "uq_sl2"])[:2]
    # A rejected import (exit 1) and a usage error (exit 2) as well.
    taft = tmp_path / "taft.hopf"
    assert cli(["construct", "taft", "--out", str(taft)])[0] == 0
    obj = json.loads(taft.read_text(encoding="utf-8"))
    bad = tmp_path / "bad.hopf"
    bad.write_text(hopfgen.dumps(hopfgen.corrupt(obj, "antipode", random.Random(0))),
                   encoding="utf-8")
    for args in (["import", str(bad)], ["construct", "uq_sl2", "--p", "4"]):
        plain = cli(args)[:2]
        assert plain[0] in (1, 2)
        for mode in tracer.MODES:
            assert cli(args, tmp_path / "t.json", mode)[:2] == plain


def test_cyclo_mode_counts_field_operations(uq_trace, tmp_path):
    rc, out, _, _ = uq_trace
    path = tmp_path / "cyclo.json"
    assert cli(["construct", "uq_sl2"], path, "cyclo")[:2] == (rc, out)
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert set(trace) == {"counters"}
    n = trace["counters"]
    assert 0 < n["cyclo.mul_cache_hits"] <= n["cyclo.mul_calls"]
    assert n["cyclo.add_calls"] > 0 and n["cyclo.interned_values"] > 0
    m = tracer.summarize([trace, uq_trace[3]])
    assert m["cyclo.mul_calls"] == n["cyclo.mul_calls"]
    assert m["hopf.verify_hopf.calls"] >= 1


def test_span_names_cover_verify_and_fingerprint_stages(uq_trace):
    names = {s[0] for s in uq_trace[3]["spans"]}
    assert "hopf.verify_hopf" in names
    for stage in tracer.FINGERPRINT_STAGES:
        assert f"invariants.{stage}" in names


def test_self_times_bounded_by_job_wall(uq_trace):
    _, _, wall, trace = uq_trace
    self_s = tracer.span_self_times(trace["spans"])
    assert all(-1e-9 <= s <= wall for s in self_s)
    root = trace["spans"][0]
    assert root[0] == tracer.ROOT_SPAN and root[3] == -1
    assert sum(self_s) == pytest.approx(root[2] - root[1], abs=1e-6)


def test_summarize_counts_nested_same_name_once():
    trace = {
        "import_s": 0.1,
        "spans": [["proc.main", 0.0, 10.0, -1],
                  ["linalg.kernel", 1.0, 5.0, 0],
                  ["linalg.kernel", 2.0, 3.0, 1],
                  ["hopf.verify_hopf", 6.0, 9.0, 0]],
        "timers": {"cyclo.parse": [0.5, 4]},
        "counters": {"linalg.kernel.cols_sum": 12, "cyclo.mul_calls": 10,
                     "cyclo.mul_cache_hits": 4, "cyclo.add_calls": 3,
                     "cyclo.inverse_calls": 1, "cyclo.interned_values": 7},
        "samples": {"cyclo": 3, "hopf": 1, "trace": 5},
    }
    m = tracer.summarize([trace, trace])
    assert m["linalg.kernel.s"] == 8.0 and m["linalg.kernel.calls"] == 4
    assert m["linalg.self_s"] == 8.0 and m["proc.self_s"] == 6.0
    assert m["cyclo.mul_cache_hit_ratio"] == 0.4
    assert m["cyclo.interned_values"] == 7
    assert m["cyclo.self_frac"] == 0.75 and m["proc.import_s"] == 0.2


def test_benchmark_metrics_are_all_reported():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    known = set(tracer.metric_names()) | {"proc.cpu_s", "trace_overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} <= known


def test_canonical_coefficient_text_matches_hopfkit():
    from hopfkit.cyclo import CycloNum, parse, render
    rng = random.Random(1)
    for _ in range(200):
        nums = [rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(6)]
        x = CycloNum.make(9, nums, rng.randint(1, 12))
        text = render(x)
        assert hopfgen.render_coeff(hopfgen.parse_coeff(text)) == text
        r = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        assert parse(9, hopfgen.scale(text, r)) == x * CycloNum.from_rational(9, r)


def test_failing_axioms_parse():
    err = ("verification error: imported algebra fails axioms: "
           "unit at (3,), counit_algebra_map at ('unit',)\n")
    assert run.failing_axioms(err) == {"unit", "counit_algebra_map"}


def test_speed_probe_scales_intervals():
    probe = run.SpeedProbe()
    start = time.perf_counter()
    time.sleep(0.3)
    end = time.perf_counter()
    probe.stop()
    inside = [u for t, u in probe.samples if start <= t <= end]
    assert len(inside) >= 5 and all(u > 0 for u in inside)
    scaled = probe.at_ref_speed(start, end)
    mean = sum(inside) / len(inside)
    assert scaled == pytest.approx((end - start) * run.REF_UNIT_S / mean)
