"""Benchmark for the kmcrystals CLI.

    python3 perfbench/run.py --workload a3-infinity --seed 1 --seconds 25 --trace 0

Each operation is one `kmcrystals` CLI call with `--format json`, made
through `kmcrystals.cli.main` in a worker process (`worker.py`) separate from
this one: a closed loop with one client, one process and one thread, where
each call starts after the previous one ends.  A pass runs every operation of
the workload once, in a fresh interpreter that imports the package from
`src/` of this checkout; passes repeat until `--seconds` are used.
`--seed` sets the order of the operations within a pass; `--inputs` picks
the input set (0, the default, is the named set; any other value draws
held-out inputs of the same shape, see `workloads.py`).

Every operation is gated (`gates.py`): any exception, non-zero exit or
failed check counts it as failed.  The work counts read from the outputs
must repeat exactly in every pass and, for the named inputs, equal the
counts recorded at the seed commit (`expected.json`).

With `--trace 0` the run reports END_TO_END, as medians:

- `wall_ref`: one full pass, in units of a fixed reference computation
  (`worker.reference`): each command's seconds are divided by the mean
  seconds of the reference sampled while the command ran.  On a shared
  machine the speed drifts by tens of percent within minutes; plain seconds
  drift with it, this ratio far less;
- `op_max_ref`: the slowest single command of a pass, in the same unit;
- `setup_s`: from launching a fresh interpreter until the first command is
  ready (the import, the data and the Weyl groups), over set-up-only
  launches made before and between the passes;
- `peak_rss_mb`: peak resident memory of the worker running a pass.

Beside them, stderr gets the pass times in plain seconds (`wall_s`,
`op_max_s`), the set-up time in reference units (`setup_ref`) and the
reference's own seconds (`reference_s`).  With `--trace 1` it runs one untraced pass and then traced passes
(`tracer.py`), and reports PER_LAYER: calls, self times and work counts per
layer, the tracing overhead, `trace.coverage` and
`trace.unattributed_share`.  Self times add up to the root spans' durations
by construction, so `trace.coverage` (self times over the traced command
time) only checks that every command ran inside the root span `cli.main`.
`trace.unattributed_share` is the root span's own self time over the traced
command time: the CLI's parsing and rendering plus whatever it calls that no
named layer claims.  The last line of stdout is one JSON object; details go
to stderr.
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
from collections import Counter
from pathlib import Path

import gates
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HARD_LIMIT_S = 165.0      # a run ends well inside 180 s
SETUP_PROBES = 6          # set-up-only launches before the passes ...
SETUP_PROBES_PER_PASS = 1  # ... and after each pass
MIN_PASSES = 2            # a median needs more than one pass, however long
MIN_TRACED_PASSES = 2
COVERAGE_TOLERANCE = 0.02

END_TO_END = (("wall_ref", "ref"), ("op_max_ref", "ref"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
EXTRA = (("wall_s", "s"), ("op_max_s", "s"), ("setup_ref", "ref"), ("reference_s", "s"))

_SPAN_METRICS = {
    "binfinity.f": ("calls", "self_s"), "binfinity.e": ("calls", "self_s"),
    "binfinity.stats": ("calls", "self_s"),
    "paths.f": ("calls", "self_s"), "paths.e": ("calls", "self_s"),
    "paths.stats": ("calls", "self_s"),
    "crystals.tensor_ef": ("calls", "self_s"),
    "crystals.t_closure": ("calls", "self_s", "elements"),
    "crystals.set_from_elements": ("calls", "self_s", "elements"),
    "crystals.product_set": ("self_s", "elements"),
    "crystals.match": ("calls", "self_s"),
    "crystals.is_extremal": ("self_s", "strings_checked", "strings_unresolved"),
    "demazure.membership": ("calls", "hits", "self_s"),
    "demazure.recognize": ("calls", "self_s", "states", "dead_ends"),
    "demazure.demazure_set": ("self_s",), "demazure.decompose": ("self_s",),
    "demazure.check": ("self_s",),
    "rootdata.weight_drop": ("calls", "self_s"), "rootdata.pair": ("calls",),
    "rootdata.weyl_mul": ("calls", "self_s"),
    "characters.demazure_op": ("calls", "self_s"),
    "characters.key_expand": ("calls", "self_s"),
    "characters.char_of_set": ("calls", "self_s"),
    "characters.key_positivity": ("self_s",),
    "cli.main": ("self_s",),
}
_EXTRA_METRICS = (
    ("crystals.is_extremal.unresolved_ratio", "ratio"),
    ("demazure.recognize.dead_end_ratio", "ratio"),
    ("demazure.oracle_rebuilds", "count"),
    *((f"work.{k}", "count") for k in gates.COUNT_KEYS),
    ("error_rate", "ratio"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.self_sum_s", "s"), ("trace.coverage", "ratio"),
    ("trace.unattributed_share", "ratio"), ("trace.spans", "count"),
)
PER_LAYER = tuple((f"{group}.{field}", "s" if field == "self_s" else "count")
                  for group, fields in _SPAN_METRICS.items() for field in fields) + _EXTRA_METRICS


class PassFailed(Exception):
    """The worker crashed, timed out or printed no result."""


def _launch(spec: dict, deadline: float) -> dict:
    """Run one worker to completion; returns its result plus `setup_s`."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    launched = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=str(ROOT), env=env, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed("worker timed out") from None
    if proc.returncode != 0 or not out.strip():
        raise PassFailed(f"worker exited with {proc.returncode}: {err.strip()[-500:]}")
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["ready"] - launched
    return result


def _sources_digest() -> str:
    """Digest of the package and of the benchmark, whose span mapping
    decides the traced counts as much as the package does."""
    h = hashlib.sha256()
    for top in (SRC / "kmcrystals", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Run:
    """State of one benchmark run: passes, gate outcomes and work counts."""

    def __init__(self, workload: str, seed: int, inputs: int):
        self.workload = workload
        self.inputs = inputs
        self.ops = workloads.ordered(workloads.operations(workload, inputs), seed)
        self.presets = sorted({op.preset for op in self.ops})
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        self.digests = expected["digests"] if inputs == 0 else None
        self.expected_counts = expected["counts"][workload] if inputs == 0 else None
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.pass_counts: list[dict] = []
        self.setup: list[tuple[float, float]] = []  # (seconds, reference seconds)

    def spec(self, setup_only=False, trace_out=None) -> dict:
        return {"src": str(SRC), "presets": self.presets, "setup_only": setup_only,
                "commands": [list(op.argv) for op in self.ops], "trace_out": trace_out}

    def probe_setup(self) -> None:
        try:
            result = _launch(self.spec(setup_only=True), self.deadline)
        except PassFailed as exc:
            self.problems.append(f"set-up launch: {exc}")
            return
        self.setup.append((result["setup_s"], result["ref_s"]))

    def one_pass(self, trace_out=None) -> dict | None:
        """Run and gate one pass; None when the worker itself failed."""
        try:
            result = _launch(self.spec(trace_out=trace_out), self.deadline)
        except PassFailed as exc:
            self.attempted += len(self.ops)
            self.failed += len(self.ops)
            self.problems.append(str(exc))
            return None
        counts: Counter = Counter({k: 0 for k in gates.COUNT_KEYS})
        for op, res in zip(self.ops, result["ops"]):
            problems, op_counts = gates.check(op, res, self.digests)
            counts.update(op_counts)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{op.key}: {p}" for p in problems)
        self.pass_counts.append(dict(counts))
        return result

    def passes(self, seconds: float, minimum: int, trace_out=None,
               probes: int = 0) -> list[dict]:
        """Passes until `seconds` are used: another pass starts only while it
        is expected to end less than half a pass past the budget.  `probes`
        set-up-only launches follow each pass."""
        started = time.monotonic()
        done: list[dict] = []
        lengths: list[float] = []
        while True:
            t0 = time.monotonic()
            result = self.one_pass(trace_out)
            if result is None:
                break
            done.append(result)
            lengths.append(time.monotonic() - t0)
            for _ in range(probes):
                self.probe_setup()
            now = time.monotonic()
            est = statistics.mean(lengths)
            if now + 1.5 * est > self.deadline:
                break
            if len(done) >= minimum and now - started + est / 2 >= seconds:
                break
        return done

    def consistent(self) -> bool:
        """No failed operation or launch, and the same work counts in every
        pass (equal to the recorded ones for the named inputs)."""
        ok = self.failed == 0 and not self.problems
        if any(c != self.pass_counts[0] for c in self.pass_counts):
            self.problems.append(f"work counts differ between passes: {self.pass_counts}")
            ok = False
        if self.expected_counts is not None and self.pass_counts and \
                self.pass_counts[0] != self.expected_counts:
            self.problems.append(f"work counts {self.pass_counts[0]} differ from the "
                                 f"recorded {self.expected_counts}")
            ok = False
        return ok

    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _median(xs, default=0.0) -> float:
    return statistics.median(xs) if xs else default


def _in_reference_units(ops: list[dict]) -> list[float]:
    """Each operation's seconds divided by the reference computation's
    seconds sampled while it ran (the pass median for a command too short
    to be sampled)."""
    refs = [op["ref_s"] for op in ops if op["ref_s"]]
    fallback = _median(refs, default=float("nan"))
    return [op["seconds"] / (op["ref_s"] or fallback) for op in ops]


def measure(run: Run, seconds: float) -> tuple[bool, dict, dict, dict]:
    """Untraced passes; returns (correct, metrics, sample counts, extra),
    where extra holds the same pass times in plain seconds."""
    run.probe_setup()  # warm-up: the first launch may compile bytecode
    run.setup.clear()
    for _ in range(SETUP_PROBES):
        run.probe_setup()
    done = run.passes(seconds, minimum=MIN_PASSES, probes=SETUP_PROBES_PER_PASS)
    rel = [_in_reference_units(r["ops"]) for r in done]
    metrics = {
        "wall_ref": _median([sum(x) for x in rel]),
        "op_max_ref": _median([max(x) for x in rel]),
        "setup_s": _median([s for s, _ in run.setup]),
        "peak_rss_mb": _median([r["peak_rss_kb"] / 1024 for r in done]),
    }
    extra = {"setup_ref": _median([s / ref for s, ref in run.setup]),
             "wall_s": _median([r["wall_s"] for r in done]),
             "op_max_s": _median([max(op["seconds"] for op in r["ops"]) for r in done]),
             "reference_s": _median([op["ref_s"] for r in done for op in r["ops"]
                                     if op["ref_s"]])}
    samples = {name: len(done) for name in [*metrics, *extra]}
    samples["setup_s"] = samples["setup_ref"] = len(run.setup)
    correct = run.consistent() and bool(done)
    return correct, metrics, samples, extra


def _layer_metrics(summary: dict) -> dict:
    spans, counters = summary["spans"], summary["counters"]
    out = {}
    for group, fields in _SPAN_METRICS.items():
        for field in fields:
            if field in ("calls", "self_s") and group != "rootdata.pair":
                value = spans.get(group, {}).get(field, 0)
            else:
                value = counters.get(f"{group}.{field}", 0)
            out[f"{group}.{field}"] = value
    out["crystals.is_extremal.unresolved_ratio"] = (
        out["crystals.is_extremal.strings_unresolved"]
        / max(1, out["crystals.is_extremal.strings_checked"]))
    out["demazure.recognize.dead_end_ratio"] = (
        out["demazure.recognize.dead_ends"] / max(1, out["demazure.recognize.states"]))
    out["demazure.oracle_rebuilds"] = summary["oracle_rebuilds"]
    return out


def _counts_only(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("self_s")}


def trace(run: Run, seconds: float) -> tuple[bool, dict, dict, dict]:
    """One untraced pass, then traced passes; returns per-layer metrics."""
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"{run.workload}-{run.inputs}.spans.json"
    untraced = run.passes(0, minimum=1)
    traced = run.passes(seconds, minimum=MIN_TRACED_PASSES, trace_out=str(spans_file))
    correct = run.consistent() and len(traced) >= MIN_TRACED_PASSES
    per_pass = [_layer_metrics(r["trace"]) for r in traced]
    metrics = {name: 0 for name, _ in PER_LAYER}
    for name in per_pass[0] if per_pass else ():
        values = [m[name] for m in per_pass]  # counts are equal in every pass
        metrics[name] = _median(values) if name.endswith("self_s") else values[0]
    counts = [_counts_only(m) for m in per_pass]
    if any(c != counts[0] for c in counts):
        run.problems.append("traced call counts differ between passes")
        correct = False
    if counts:
        correct &= _same_as_last_run(run, counts[0])
    for key in gates.COUNT_KEYS:
        metrics[f"work.{key}"] = run.pass_counts[0][key] if run.pass_counts else 0
    metrics["error_rate"] = run.error_rate()
    walls = [r["wall_s"] for r in traced]
    metrics["trace.wall_s"] = _median(walls)
    metrics["trace.untraced_wall_s"] = _median([r["wall_s"] for r in untraced])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    # the same overhead in reference units, which the machine's drift does not move
    traced_ref = _median([sum(_in_reference_units(r["ops"])) for r in traced])
    untraced_ref = _median([sum(_in_reference_units(r["ops"])) for r in untraced])
    metrics["trace.overhead_share"] = traced_ref / untraced_ref - 1 if untraced_ref else 0.0
    self_sums = [r["trace"]["self_sum_s"] for r in traced]
    metrics["trace.self_sum_s"] = _median(self_sums)
    coverage = [s / w for s, w in zip(self_sums, walls)]
    metrics["trace.coverage"] = _median(coverage)
    metrics["trace.unattributed_share"] = _median(
        [r["trace"]["spans"]["cli.main"]["self_s"] / r["wall_s"] for r in traced])
    metrics["trace.spans"] = traced[0]["trace"]["span_count"] if traced else 0
    if any(abs(1 - c) > COVERAGE_TOLERANCE for c in coverage):
        run.problems.append(f"span self times cover {coverage} of the traced wall time")
        correct = False
    samples = {name: len(traced) for name, _ in PER_LAYER}
    return correct, metrics, samples, {}


def _same_as_last_run(run: Run, counts: dict) -> bool:
    """Compare traced counts with the last traced run of the same sources."""
    path = OUT / f"{run.workload}-{run.inputs}-{_sources_digest()[:16]}.counts.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        if before != counts:
            diff = sorted(k for k in counts if before.get(k) != counts[k])
            run.problems.append(f"traced counts differ from the previous run: {diff}")
            return False
    else:
        path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return True


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 inputs: int = 0) -> dict:
    """One benchmark run: the result object, plus `extra` (pass times in plain
    seconds, which are not steady enough on a shared machine to gate on),
    `samples` (per metric) and `problems`."""
    run = Run(workload, seed, inputs)
    correct, metrics, samples, extra = (trace if traced else measure)(run, seconds)
    units = dict(PER_LAYER if traced else END_TO_END)
    return {"correct": bool(correct), "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "extra": {k: {"value": v, "unit": dict(EXTRA)[k]} for k, v in extra.items()},
            "samples": samples, "problems": run.problems}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, default=0, help="order of the operations in a pass")
    p.add_argument("--seconds", type=float, default=25.0, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inputs", type=int, default=0,
                   help="input set: 0 is the named set, others are held out")
    args = p.parse_args(argv)
    if not (SRC / "kmcrystals" / "cli.py").is_file():
        print(f"error: no kmcrystals sources under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.inputs)
    samples, problems = result.pop("samples"), result.pop("problems")
    for name, m in [*result["metrics"].items(), *result.pop("extra").items()]:
        print(f"{name:45s} {m['value']:14.6g} {m['unit']:6s} n={samples[name]}", file=sys.stderr)
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
