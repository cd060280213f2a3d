"""The hopfkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it uses the package under src/.  It is a
closed loop with a single client: the jobs of a workload run one after
another, each as a fresh `python -m hopfkit.cli ...` process, so the
program's cold in-process caches are paid as a user pays them on every
call.  One pass runs every job of the workload once; passes repeat until
`--seconds` have elapsed (at least one pass).  Every job's exit code,
stdout, named failing axiom and written file are checked against the
answers in reference.json and against facts known without the program.

--trace 0 reports the end-to-end metrics, with times scaled to a reference
CPU speed (see SpeedProbe).  --trace 1 runs one untraced pass, one pass
that counts field operations (tracer.py's `cyclo` mode), and then passes
with spans (its `spans` mode), and reports the per-layer metrics.  The
last line of stdout is one JSON object with the metrics named in
BENCHMARK.json; the exit code is 1 if any job failed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import hopfgen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, ".work")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
TRACER = os.path.join(BENCH_DIR, "tracer.py")
SPEED_PROBE = os.path.join(BENCH_DIR, "speed.py")

# setup_s is the median input generation plus a cold import (import_seconds).
GEN_REPEATS = 3
IMPORT_REPEATS = 21
JOB_TIMEOUT_S = 150
# Times are reported at a reference speed: the one at which speed.py's unit
# of work takes 60 us (about the fastest the 2-vCPU machine this was written
# on ran it).  See SpeedProbe.
REF_UNIT_S = 60e-6
# The speed probe's unit predicts the speed of an import poorly, so a cold
# `import hopfkit.cli` is scaled by a cold import of standard modules timed
# beside it, which at the reference speed takes REF_IMPORT_S.
REF_IMPORT = "import argparse, dataclasses, fractions, functools, itertools, json, re"
REF_IMPORT_S = 0.065


class SetupError(Exception):
    pass


@dataclass
class Job:
    """One CLI call and what it must produce."""

    name: str                   # key of its answer in reference.json
    args: list[str]
    rc: int = 0
    out_file: str | None = None  # a file the job writes, checked by sha256
    axioms: frozenset = frozenset()  # failing axioms stderr must name
    exact_axioms: bool = False       # ... and no others
    check_stdout: Callable[[str], str | None] | None = None  # extra check -> error


@dataclass
class Outcome:
    start: float                # perf_counter at spawn
    end: float                  # perf_counter at exit
    cpu_s: float
    rss_mb: float
    error: str | None


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


class SpeedProbe:
    """speed.py, running beside the jobs on the benchmark's one CPU.

    The CPUs of a shared machine change speed by up to 2x within minutes,
    and each CPU on its own.  A job's time divided by the probe's mean time
    per unit of work over the same interval, times REF_UNIT_S, is the time
    the job would have taken at the reference speed; that removes most of
    the drift between runs.  The probe costs the jobs about 2 % of the CPU.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, SPEED_PROBE], cwd=ROOT,
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        self.samples: list[tuple[float, float]] = []

    def stop(self) -> None:
        self.proc.terminate()
        out, _ = self.proc.communicate(timeout=30)
        if self.proc.returncode != 0:
            raise SetupError("speed probe failed")
        self.samples = [tuple(s) for s in json.loads(out)]

    def at_ref_speed(self, start: float, end: float) -> float:
        """The interval's length, scaled to the reference speed."""
        units = [u for t, u in self.samples if start <= t <= end]
        if not units:
            units = [u for _, u in self.samples]
        return (end - start) * REF_UNIT_S / statistics.mean(units)


def env():
    e = dict(os.environ)
    e["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + e["PYTHONPATH"] if e.get("PYTHONPATH") else "")
    e["PYTHONHASHSEED"] = "0"
    return e


def rel(path: str) -> str:
    return os.path.relpath(path, ROOT)


class Reference:
    """Recorded answers by job name: stdout, and sha256 of the written file.

    A recording reference stores the first answer it sees for each name;
    record.py uses one to write reference.json.
    """

    def __init__(self, answers: dict, record: bool = False):
        self.answers = answers
        self.record = record

    @classmethod
    def load(cls) -> "Reference":
        with open(REFERENCE, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def answer(self, job: "Job", stdout: str) -> dict | None:
        if self.record and job.name not in self.answers:
            entry = {"stdout": stdout}
            if job.out_file is not None and os.path.exists(job.out_file):
                entry["sha256"] = sha256(job.out_file)
            self.answers[job.name] = entry
        return self.answers.get(job.name)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def failing_axioms(stderr: str) -> set[str]:
    """Axiom names in "... fails axioms: name at (i,), name at (j, k)"."""
    _, _, tail = stderr.partition("fails axioms: ")
    return set(re.findall(r"(\w+) at \(", tail))


def run_job(job: Job, ref: Reference, trace: tuple[str, str] | None = None) -> Outcome:
    """Run a job, plain or under tracer.py with trace = (mode, trace file)."""
    if trace is None:
        cmd = [sys.executable, "-m", "hopfkit.cli", *job.args]
    else:
        cmd = [sys.executable, TRACER, *trace, *job.args]
    out_path = os.path.join(WORK_DIR, "job.out")
    err_path = os.path.join(WORK_DIR, "job.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Outcome(start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   job_error(job, ref, rc, stdout, stderr))


def job_error(job: Job, ref: Reference, rc: int, stdout: str, stderr: str) -> str | None:
    if rc != job.rc:
        return f"exit code {rc}, expected {job.rc}: {stderr.strip()[-300:]}"
    if job.axioms:
        named = failing_axioms(stderr)
        if not job.axioms <= named or (job.exact_axioms and named != job.axioms):
            return f"failing axioms {sorted(named)}, expected {sorted(job.axioms)}"
        if stdout:
            return f"unexpected stdout {stdout[:200]!r}"
        return None
    answer = ref.answer(job, stdout)
    if answer is None:
        return "no reference answer"
    if stdout != answer["stdout"]:
        return f"stdout differs from the reference: {stdout[-300:]!r}"
    if job.check_stdout is not None:
        err = job.check_stdout(stdout)
        if err:
            return err
    if job.out_file is not None:
        if not os.path.exists(job.out_file):
            return f"{rel(job.out_file)} not written"
        if sha256(job.out_file) != answer["sha256"]:
            return f"{rel(job.out_file)} differs from the reference"
    return None


def run_checked(job: Job, ref: Reference) -> None:
    """A set-up step: any wrong answer stops the benchmark."""
    o = run_job(job, ref)
    if o.error:
        raise SetupError(f"{job.name}: {o.error}")


def cold_import(code: str) -> float:
    """Seconds to run `python -c code` in a fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=env(), stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=JOB_TIMEOUT_S)
    if done.returncode != 0:
        raise SetupError(f"{code} failed: {done.stderr.decode()[-300:]}")
    return time.perf_counter() - start


def import_seconds() -> tuple[float, float]:
    """A cold `import hopfkit.cli` scaled to the reference speed, and as
    measured: the median over pairs of the hopfkit and reference imports."""
    pairs = [(cold_import("import hopfkit.cli"), cold_import(REF_IMPORT))
             for _ in range(IMPORT_REPEATS)]
    return (statistics.median(h / r for h, r in pairs) * REF_IMPORT_S,
            statistics.median(h for h, _ in pairs))


# -- workloads -----------------------------------------------------------------

# (G(H); G(H*)) for each member of the p = 3 corpus, written from the
# mathematics rather than from program output.  G(k[G]) = G and the
# characters of k[G] are the dual of G/[G,G]; both nonabelian groups of order
# 27 have abelianisation Z/3 x Z/3 ("na27" is the program's token for a
# nonabelian group of order 27).  The rest is the dimension-27 type table:
# T(q) (3;3); T(q) (x) k[Z/3] (3,3;3,3); T~, T^ (9;9); r(q) (9;3); u_q(sl2)
# (3;1) and its dual (1;3); dual r(q) (3;9); the book algebras h(q,m) (3;3).
PAPER_TYPES_P3 = {
    "k[Z/27]": ("27", "27"),
    "k[Z/9 x Z/3]": ("9,3", "9,3"),
    "k[Z/3 x Z/3 x Z/3]": ("3,3,3", "3,3,3"),
    "k[Heis(3)]": ("na27", "3,3"),
    "k[Z/9 : Z/3]": ("na27", "3,3"),
    "dual(k[Heis(3)])": ("3,3", "na27"),
    "dual(k[Z/9 : Z/3])": ("3,3", "na27"),
    "taft(p=3,e={e})": ("3", "3"),
    "taft_tensor(p=3,e={e})": ("3,3", "3,3"),
    "ttilde(p=3,e={e},root=0)": ("9", "9"),
    "that(p=3,e={e})": ("9", "9"),
    "r(p=3,e={e})": ("9", "3"),
    "uq_sl2(p=3,e={e})": ("3", "1"),
    "book(p=3,e={e},m=1)": ("3", "3"),
    "book(p=3,e={e},m=2)": ("3", "3"),
    "dual(uq_sl2(p=3,e={e}))": ("1", "3"),
    "dual(r(p=3,e={e}))": ("3", "9"),
}
ROW = re.compile(r"^ok  (.+): dim=\d+ type=\(([^;]*);([^)]*)\) ")


def typetable_error(stdout: str, e: int) -> str | None:
    """Cross-check the type pairs of a typetable report with PAPER_TYPES_P3."""
    want = {label.format(e=e): pair for label, pair in PAPER_TYPES_P3.items()}
    lines = stdout.splitlines()
    got = {}
    for line in lines[:-1]:
        m = ROW.match(line)
        if not m:
            return f"row not ok: {line!r}"
        got[m.group(1)] = (m.group(2), m.group(3))
    if got != want:
        bad = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
        return f"type pairs differ from the paper's table at {bad}"
    if lines[-1:] != ["typetable=pass"]:
        return "typetable did not pass"
    return None


def typetable_job(e: int) -> Job:
    return Job(f"typetable e={e}", ["papercheck", "typetable", "--p", "3", "--e", str(e)],
               check_stdout=lambda out: typetable_error(out, e))


def scale_job(q: int, work: str) -> Job:
    out = os.path.join(work, "that.hopf")
    return Job(f"that p=5 q={q}", ["construct", "that", "--p", "5", "--q", str(q),
                                   "--out", rel(out)], out_file=out)


def typetable_p3(rng: random.Random, work: str, ref: Reference) -> list[Job]:
    return [typetable_job(rng.randint(1, 2))]


def scale_p5(rng: random.Random, work: str, ref: Reference) -> list[Job]:
    return [scale_job(rng.randint(1, 4), work)]


def file_jobs(rng: random.Random, work: str, ref: Reference) -> list[Job]:
    taft, dtaft, uq = (os.path.join(work, f) for f in ("taft.hopf", "dtaft.hopf", "uq.hopf"))
    double = Job("double taft", ["double", rel(taft), "--out", rel(dtaft)], out_file=dtaft)
    run_checked(Job("construct taft", ["construct", "taft", "--out", rel(taft)],
                    out_file=taft), ref)
    run_checked(double, ref)
    run_checked(Job("construct uq_sl2 rmatrix",
                    ["construct", "uq_sl2", "--rmatrix", "uq_standard", "--out", rel(uq)],
                    out_file=uq), ref)

    with open(dtaft, encoding="utf-8") as fh:
        base = json.load(fh)
    jobs = [double]

    def write(name, obj):
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(hopfgen.dumps(obj))
        return rel(path)

    # Two pure relabellings, which share the input's field values, and one
    # rescaled relabelling, whose new values make most products cache misses
    # (its import costs several times as much).  Corruptions start from pure
    # relabellings, so rejecting costs about what accepting does.
    for k, rescale in enumerate((False, False, True)):
        path = write(f"variant{k}.hopf", hopfgen.relabel(base, rng, rescale))
        jobs.append(Job("import D(taft)", ["import", path]))
    for kind, (axioms, exact) in hopfgen.CORRUPTIONS.items():
        bad = hopfgen.corrupt(hopfgen.relabel(base, rng, False), kind, rng)
        path = write(f"corrupt_{kind}.hopf", bad)
        jobs.append(Job(f"import corrupt {kind}", ["import", path], rc=1,
                        axioms=frozenset(axioms), exact_axioms=exact))
    jobs.append(Job("qt-verify uq", ["qt-verify", rel(uq)]))
    jobs.append(Job("ribbon uq", ["ribbon", rel(uq)]))
    return jobs


WORKLOADS = {
    "typetable-p3": typetable_p3,
    "file-jobs": file_jobs,
    "scale-p5": scale_p5,
}


# -- measurement ---------------------------------------------------------------


def generate(workload: str, seed: int, ref: Reference) -> tuple[list[Job], tuple]:
    """Fresh inputs for the seed; returns the jobs and the (start, end) of
    their generation."""
    work = os.path.join(WORK_DIR, workload)
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    jobs = WORKLOADS[workload](random.Random(seed), work, ref)
    return jobs, (start, time.perf_counter())


def run_pass(jobs: list[Job], ref: Reference, mode: str | None) -> Pass:
    """Every job once: plain, or under tracer.py in the given mode."""
    p = Pass()
    for i, job in enumerate(jobs):
        trace_path = os.path.join(WORK_DIR, f"trace{i}.json")
        if mode and os.path.exists(trace_path):
            os.unlink(trace_path)
        o = run_job(job, ref, (mode, trace_path) if mode else None)
        if o.error:
            print(f"FAILED {job.name}: {o.error}", file=sys.stderr)
        elif mode:
            with open(trace_path, encoding="utf-8") as fh:
                p.traces.append(json.load(fh))
        p.outcomes.append(o)
    return p


def measure(jobs: list[Job], ref: Reference, seconds: float,
            mode: str | None) -> list[Pass]:
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(jobs, ref, mode))
    return passes


def end_to_end(passes: list[Pass], gens: list[tuple], import_s: float,
               secs) -> dict[str, float]:
    """`secs(start, end)` turns an interval into the seconds reported."""
    return {
        "wall_s": statistics.median(sum(secs(o.start, o.end) for o in p.outcomes)
                                    for p in passes),
        "job_max_s": statistics.median(max(secs(o.start, o.end) for o in p.outcomes)
                                       for p in passes),
        "setup_s": statistics.median(secs(*g) for g in gens) + import_s,
        "peak_rss_mb": max(o.rss_mb for p in passes for o in p.outcomes),
    }


def per_layer(plain: Pass, counted: Pass, traced: list[Pass], secs) -> dict[str, float]:
    """Medians over the span passes; the cyclo counts come from `counted`."""
    import tracer
    layers = [tracer.summarize(counted.traces + p.traces) for p in traced]
    out = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    out["proc.cpu_s"] = sum(o.cpu_s for o in plain.outcomes)

    def wall(p):
        return sum(secs(o.start, o.end) for o in p.outcomes)
    out["trace_overhead_frac"] = statistics.median(map(wall, traced)) / wall(plain) - 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hopfkit", "cli.py")):
        print("error: run from the repository root; src/hopfkit is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ref = Reference.load()
    os.makedirs(WORK_DIR, exist_ok=True)
    # One CPU for the benchmark, its jobs and the speed probe alike.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    try:
        # A traced run reports no setup_s, so it sets up only once.
        gens = []
        for _ in range(1 if args.trace else GEN_REPEATS):
            jobs, interval = generate(args.workload, args.seed, ref)
            gens.append(interval)
        if args.trace:
            t0 = time.perf_counter()
            plain = run_pass(jobs, ref, None)
            counted = run_pass(jobs, ref, "cyclo")
            traced = measure(jobs, ref, args.seconds - (time.perf_counter() - t0),
                             "spans")
            passes = [plain, counted] + traced
        else:
            import_s = import_seconds()
            passes = measure(jobs, ref, args.seconds, None)
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        probe.stop()

    if args.trace:
        ok = all(p.traces for p in [counted] + traced)
        values = per_layer(plain, counted, traced, probe.at_ref_speed) if ok else {}
        wanted = spec["per_layer"]
    else:
        values = end_to_end(passes, gens, import_s[0], probe.at_ref_speed)
        raw = end_to_end(passes, gens, import_s[1], lambda start, end: end - start)
        wanted = spec["end_to_end"]

    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(1 for o in outcomes if o.error)
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        line = f"{name:44s} {metrics[name]['value']:14.6f} {unit}"
        if not args.trace and unit == "s":
            line += f"   ({raw[name]:.6f} s at the speed the machine ran)"
        print(line)
    print(f"{'failed_frac':44s} {failed / len(outcomes):14.6f} "
          f"({failed} of {len(outcomes)} jobs, {len(passes)} passes)")
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1

if __name__ == "__main__":
    sys.exit(main())
