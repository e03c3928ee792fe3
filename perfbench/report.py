"""Print every metric of every workload, with unit and sample count.

    python3 perfbench/report.py [--seconds 25] [--seed 1] [--inputs 0]

For each workload this makes one untraced run (the end-to-end metrics, plus
`error_rate` = failed / attempted operations) and one traced run (the
per-layer metrics), exactly as `run.py` does.
"""

from __future__ import annotations

import argparse
import sys

import workloads
from run import SRC, run_workload


def _print(workload: str, label: str, result: dict, samples: dict) -> None:
    error_rate = result["failed"] / max(1, result["attempted"])
    print(f"{workload} [{label}] correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    metrics = {**result["metrics"], **result["extra"]}
    rows = [(name, m["value"], m["unit"], samples[name]) for name, m in metrics.items()]
    if label == "end-to-end":
        rows.append(("error_rate", error_rate, "ratio", result["attempted"]))
    for name, value, unit, n in rows:
        print(f"  {name:42s} {value:14.6g} {unit:6s} n={n}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--inputs", type=int, default=0)
    args = p.parse_args(argv)
    if not (SRC / "kmcrystals" / "cli.py").is_file():
        print(f"error: no kmcrystals sources under {SRC}", file=sys.stderr)
        return 2
    ok = True
    for workload in workloads.WHY:
        print(f"# {workload}: {workloads.WHY[workload]}")
        for traced in (False, True):
            result = run_workload(workload, args.seed, args.seconds, traced, args.inputs)
            samples, problems = result.pop("samples"), result.pop("problems")
            _print(workload, "per-layer" if traced else "end-to-end", result, samples)
            for line in problems[:10]:
                print(f"  problem: {line}")
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
