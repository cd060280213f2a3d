"""Traced run of one hopfkit CLI job with per-layer spans and counters.

    PYTHONPATH=src python3 perfbench/tracer.py spans|cyclo TRACE.json <hopfkit args...>

runs `hopfkit.cli.main(args)` in this process, so stdout, stderr and the
exit code are the CLI's own.  In `spans` mode it first replaces the named
public functions with span-recording wrappers in every hopfkit module that
holds a binding of them (`constructors`, `hopffile` and `presentations`
import `verify_hopf` by name, for example), and samples the innermost
hopfkit frame on a CPU-time timer.  In `cyclo` mode it only counts
`CycloNum` operations.  The counters add a Python call to millions of
field operations, so they run in a job of their own and leave the spans'
times and the sampler's shares undistorted.  What was recorded stays in
memory and is written to TRACE.json when the job ends.

`summarize` turns the traces of one pass of jobs into per-layer metrics; it
needs no hopfkit and is what the benchmark imports.
"""

from __future__ import annotations

import dis
import functools
import json
import os
import signal
import sys
import time

LAYERS = ("cyclo", "linalg", "hopf", "invariants", "presentations",
          "constructors", "quasitriangular", "hopffile")

FINGERPRINT_STAGES = ("grouplike_census", "characters_census",
                      "coradical_filtration", "antipode_order",
                      "semisimplicity", "modular_elements", "integrals")

# Public functions wrapped in a span, by the module that defines them.
SPANNED = {
    "linalg": ("kernel", "intersect_kernels", "mat_mul", "algebra_radical"),
    "hopf": ("verify_hopf", "dual", "tensor"),
    "invariants": ("fingerprint",) + FINGERPRINT_STAGES,
    "presentations": ("build_from_presentation", "find_embedding"),
    "constructors": ("standard_constructors", "drinfeld_double"),
    "quasitriangular": ("verify_qt", "drinfeld_element", "ribbon_search"),
    "hopffile": ("loads", "dumps"),
}
# Called once per coefficient: too fine-grained for spans, so only timed.
TIMED = {"cyclo": ("parse", "render")}

MODES = ("spans", "cyclo")
ROOT_SPAN = "proc.main"
_THIS_FILE = (lambda: None).__code__.co_filename
# The opcode that starts a call; Python 3.10 has none, and -1 never matches.
_RESUME = dis.opmap.get("RESUME", -1)
# CPU time between samples; the kernel rounds it up to its tick.
SAMPLE_INTERVAL_S = 0.001


class Tracer:
    """Spans, counters and profile samples of one process."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack = [-1]
        self.timers: dict[str, list] = {}  # name -> [seconds, calls]
        self.counters: dict[str, int] = {}
        self.samples: dict[str, int] = {}
        self._layer_of_file: dict[str, str] = {}
        self._pkg_dir = ""
        self._cyclo = None
        self._cyclo_ops: dict[str, int] = {}

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return wrapper

    def timer(self, name, fn):
        acc = self.timers.setdefault(name, [0.0, 0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += clock() - t0
                acc[1] += 1
        return wrapper

    def instrument(self, package):
        """Wrap every SPANNED/TIMED function, under each of its bindings."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == package.__name__ or name.startswith(package.__name__ + ".")]
        self._pkg_dir = os.path.dirname(package.__file__) + os.sep
        for table, make in ((SPANNED, self.span), (TIMED, self.timer)):
            for layer, names in table.items():
                mod = sys.modules[f"{package.__name__}.{layer}"]
                for fname in names:
                    orig = getattr(mod, fname)
                    wrapped = make(f"{layer}.{fname}", orig)
                    if (layer, fname) == ("linalg", "kernel"):
                        wrapped = self._count_kernel_cols(wrapped)
                    for m in mods:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, wrapped)

    def _count_kernel_cols(self, fn):
        counters = self.counters
        counters["linalg.kernel.cols_sum"] = 0

        @functools.wraps(fn)
        def wrapper(rows, n_cols, *args, **kwargs):
            counters["linalg.kernel.cols_sum"] += n_cols
            return fn(rows, n_cols, *args, **kwargs)
        return wrapper

    def count_cyclo(self, cyclo):
        cls, cache = cyclo.CycloNum, cyclo._MUL_CACHE
        orig_mul, orig_add, orig_sub, orig_inv = (
            cls.__mul__, cls.__add__, cls.__sub__, cls.inverse)
        n = {"mul": 0, "hit": 0, "add": 0, "inv": 0}

        def mul(a, b):
            n["mul"] += 1
            if (a, b) in cache:
                n["hit"] += 1
            return orig_mul(a, b)

        def add(a, b):
            n["add"] += 1
            return orig_add(a, b)

        def sub(a, b):
            n["add"] += 1
            return orig_sub(a, b)

        def inverse(a):
            n["inv"] += 1
            return orig_inv(a)

        cls.__mul__, cls.__add__, cls.__sub__, cls.inverse = mul, add, sub, inverse
        self._cyclo_ops = n
        self._cyclo = cyclo

    # -- CPU-time sampler ------------------------------------------------------

    def _layer(self, filename: str) -> str:
        """The layer a code file belongs to; "" outside hopfkit."""
        layer = self._layer_of_file.get(filename)
        if layer is None:
            if filename == _THIS_FILE:
                layer = "trace"
            elif filename.startswith(self._pkg_dir):
                base = os.path.basename(filename)[:-3]
                layer = base if base in LAYERS else "proc"
            else:
                layer = ""
            self._layer_of_file[filename] = layer
        return layer

    def _on_sample(self, signum, frame):
        # CPython runs a signal handler at its next check, which is mostly
        # the RESUME that starts a call: the tick then fell in the caller.
        code = frame.f_code.co_code
        if (_RESUME >= 0 and frame.f_lasti >= 0 and code[frame.f_lasti] == _RESUME
                and frame.f_back):
            frame = frame.f_back
        # The innermost hopfkit frame gets the sample, so time in the
        # stdlib (fractions, json) counts for the layer that called it.
        # Samples inside this file's wrappers are tracing cost, kept apart.
        layer = self._layer(frame.f_code.co_filename)
        while not layer:
            frame = frame.f_back
            if frame is None:
                layer = "proc"
                break
            layer = self._layer(frame.f_code.co_filename)
        self.samples[layer] = self.samples.get(layer, 0) + 1

    def start_sampler(self):
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop_sampler(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def dump(self, path, import_s):
        if self._cyclo is None:
            trace = {"import_s": import_s, "spans": self.spans,
                     "timers": self.timers, "counters": self.counters,
                     "samples": self.samples}
        else:
            n = self._cyclo_ops
            trace = {"counters": {
                "cyclo.mul_calls": n["mul"], "cyclo.mul_cache_hits": n["hit"],
                "cyclo.add_calls": n["add"], "cyclo.inverse_calls": n["inv"],
                "cyclo.interned_values": len(self._cyclo._INTERN),
            }}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)


def main(argv) -> int:
    if len(argv) < 3 or argv[1] not in MODES:
        print(f"usage: tracer.py {'|'.join(MODES)} TRACE.json <hopfkit args...>",
              file=sys.stderr)
        return 2
    mode, out_path, args = argv[1], argv[2], argv[3:]
    t0 = time.perf_counter()
    import hopfkit.cli
    import_s = time.perf_counter() - t0
    # Load the lazily imported modules too, so every binding gets wrapped.
    import hopfkit.constructors
    import hopfkit.cyclo
    import hopfkit.papercheck
    import hopfkit.quasitriangular  # noqa: F401

    tracer = Tracer()
    run = hopfkit.cli.main
    if mode == "spans":
        tracer.instrument(hopfkit)
        run = tracer.span(ROOT_SPAN, run)
        tracer.start_sampler()
    else:
        tracer.count_cyclo(hopfkit.cyclo)
    try:
        return run(args)
    finally:
        tracer.stop_sampler()
        tracer.dump(out_path, import_s)


# -- metrics from the traces of one pass ---------------------------------------


def span_self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    self_s = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def metric_names() -> list[str]:
    """Every metric `summarize` reports."""
    names = []
    for table in (SPANNED, TIMED):
        for layer, fnames in table.items():
            for fname in fnames:
                names += [f"{layer}.{fname}.s", f"{layer}.{fname}.calls"]
    names += ["linalg.kernel.cols_sum", "cyclo.mul_calls", "cyclo.add_calls",
              "cyclo.inverse_calls", "cyclo.mul_cache_hit_ratio",
              "cyclo.interned_values", "proc.import_s"]
    names += [layer + ".self_s" for layer in list(SPANNED) + ["proc"]]
    names += [layer + ".self_frac" for layer in LAYERS + ("proc",)]
    return names


def summarize(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass: sums over its jobs, ratios of sums.

    `traces` holds the jobs' traces of either mode; each adds what it has.
    """
    out: dict[str, float] = dict.fromkeys(metric_names(), 0)

    def add(key, value):
        out[key] = out.get(key, 0) + value

    interned = 0
    samples: dict[str, int] = {}
    for tr in traces:
        spans = tr.get("spans", [])
        for (name, start, end, parent), self_s in zip(spans, span_self_times(spans)):
            add(name + ".calls", 1)
            add(name.split(".")[0] + ".self_s", self_s)
            # Inclusive time counts only the outermost of nested same-name spans.
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                add(name + ".s", end - start)
        for name, (secs, calls) in tr.get("timers", {}).items():
            add(name + ".s", secs)
            add(name + ".calls", calls)
        for name, v in tr["counters"].items():
            if name != "cyclo.interned_values":
                add(name, v)
        interned = max(interned, tr["counters"].get("cyclo.interned_values", 0))
        for layer, k in tr.get("samples", {}).items():
            if layer != "trace":
                samples[layer] = samples.get(layer, 0) + k
        add("proc.import_s", tr.get("import_s", 0))

    hits = out.pop("cyclo.mul_cache_hits", 0)
    out["cyclo.mul_cache_hit_ratio"] = hits / out["cyclo.mul_calls"] if out.get("cyclo.mul_calls") else 0.0
    out["cyclo.interned_values"] = interned
    total = sum(samples.values())
    for layer in LAYERS + ("proc",):
        out[layer + ".self_frac"] = samples.get(layer, 0) / total if total else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv))
