"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload W --seeds 1-10 [--seconds S]

The spread is (Q3 - Q1) / median over the seeds, with quartiles as
`statistics.quantiles(values, n=4)` gives them.  Each spread is compared
with its bound from BENCHMARK.json.  The runs go one after another, so that
they do not disturb each other's timings.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)

    values: dict[str, list[float]] = {}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, HERE / "run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        ok &= result["correct"]
        row = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print(f"{args.workload}: {len(args.seeds)} seeds, {args.seconds} s runs")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        spread = quartile_spread(values[name])
        verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER")
        if name == "setup_s":
            verdict += " (the set-up spread is not gated)"
        print(f"  {name:14s} median {median(values[name]):12.6g}  spread {spread:.4f}  "
              f"bound {bound}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
