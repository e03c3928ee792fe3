"""One benchmark pass, in a fresh interpreter.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON holds `src` (the directory holding the kmcrystals package to
import), `presets` (data to build before the first command), `commands`
(CLI argument lists, each run through `kmcrystals.cli.main` with stdout
captured), `setup_only`, and `trace_out` (a file for the spans; when set,
the layers are traced).  Prints one JSON object: `ready`, the
`time.monotonic()` reading at which the first command could start; for a
set-up-only launch `ref_s`, the seconds of one reference computation; for a
pass, per command its exit code, exception, seconds, stdout and `ref_s`
(the mean reference seconds sampled while it ran, or in a traced pass just
before and after it), then the pass's
`wall_s`, `peak_rss_kb` and, when traced, `trace`.
"""

import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

SAMPLE_INTERVAL_S = 0.1


def reference() -> Fraction:
    """A fixed pure-Python computation: dict updates on small tuple keys and
    Fraction sums, the kinds of work the package does, over a working set
    that stays in the per-core caches."""
    table: dict = {}
    total = Fraction(0)
    for k in range(1, 1801):
        key = (k & 15, k % 7)
        table[key] = table.get(key, 0) + k
        if k % 8 == 0:
            total += Fraction(k, key[1] + 1)
    return total


def reference_seconds() -> float:
    """Seconds for one `reference()`, with the collector paused so that a
    collection of the package's objects is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times `reference()` from a SIGALRM handler every SAMPLE_INTERVAL_S,
    so the machine's speed is sampled while each command runs.

    On a shared machine the speed drifts by tens of percent within minutes;
    a command's time divided by the reference time measured while it ran
    drifts far less.  Of the kernels tried, this cache-resident one slowed
    most like the package: kernels that walk a table larger than the caches
    slowed by much more than the package when the machine got busy.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []

    def _sample(self, signum, frame):
        t0, t = time.perf_counter(), reference_seconds()
        self.lengths.append(t)
        self.starts.append(t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def within(self, t0: float, t1: float) -> list[float]:
        return [n for s, n in zip(self.starts, self.lengths) if t0 <= s < t1]


def main() -> None:
    spec = json.loads(sys.argv[1])
    import kmcrystals
    from kmcrystals import cli
    from kmcrystals.rootdata import preset, weyl_group_elements

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(kmcrystals.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported kmcrystals from {kmcrystals.__file__}, not {src}")
    for name in spec["presets"]:
        weyl_group_elements(preset(name))
    ready = time.monotonic()
    out = {"ready": ready}
    if spec["setup_only"]:
        out["ref_s"] = statistics.median(reference_seconds() for _ in range(9))
        print(json.dumps(out))
        return

    tracer = None
    if spec.get("trace_out"):
        import tracer as tracing  # beside this file, so first on sys.path
        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = []
    clock = time.perf_counter
    # The tracer's spans would count the sampler's time, so traced passes
    # run without it.
    sampler = None if tracer else SpeedSampler()
    # Traced passes instead time the reference between commands, outside
    # every span: marks[i] before command i, marks[-1] after the last.
    marks: list[float] = []
    with sampler or contextlib.nullcontext():
        for argv in spec["commands"]:
            if sampler is None:
                marks.append(statistics.fmean(reference_seconds() for _ in range(5)))
            buf = io.StringIO()
            code = error = None
            t0 = clock()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a failed pass
                error = f"{type(exc).__name__}: {exc}"
            ops.append({"argv": argv, "code": code, "error": error,
                        "span": (t0, clock()), "stdout": buf.getvalue()})
        if sampler is None:
            marks.append(statistics.fmean(reference_seconds() for _ in range(5)))
    for k, op in enumerate(ops):
        t0, t1 = op.pop("span")
        probes = sampler.within(t0, t1) if sampler else []
        op["seconds"] = t1 - t0 - sum(probes)
        # mean reference seconds while the command ran (the mean weighs slow
        # stretches by how long they lasted; None when too short to sample)
        if sampler is None:
            op["ref_s"] = (marks[k] + marks[k + 1]) / 2
        else:
            op["ref_s"] = statistics.fmean(probes) if probes else None
    out["wall_s"] = sum(op["seconds"] for op in ops)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["ops"] = ops
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.dump(spec["trace_out"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
