"""The l1svm benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each was chosen):
  cli_roundtrip  generate, solve with l1 / l1l2 / onebit, check lemma7; one
                 fresh `python -m l1svm` process per step
  sweep_m        m-sweep (d=1000, four default series) run in one process
  sweep_r_high   r-sweep at r in {1.5, 3, 6}, d=1000, m=400, both SVM solvers

Each is a closed loop with one client: steps run one after another.  The
repetition (round trip or sweep) is repeated with the same seed while
another one fits in S seconds; times are medians over repetitions.  With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
the run makes an untraced, a traced and another untraced repetition and
reports the per-layer metrics instead.  The full result, with a machine fingerprint,
goes to perfbench/out/<workload>-seed<N>-trace<T>/result.json.  Exit code 1
means an operation failed its output check, 2 a bad invocation or a
checkout without the l1svm sources.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import verify
from layers import COMPUTED, PER_LAYER, layer_metrics
from spans import load, merge, nesting_violations
from stats import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_roundtrip", "sweep_m", "sweep_r_high")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 3
PROCESS_TIMEOUT_S = 150
# cli_roundtrip instance: the d=1000, m=800 case a CLI user solves
CLI_SHAPE = ("--d", "1000", "--s", "5", "--m", "800", "--r", "0.94")
CLI_METHODS = {"l1": False, "l1l2": True, "onebit": True}  # method -> ||w||_2 <= 1 applies


def python_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def spawn(cmd, env):
    """Run `cmd` to completion.  Returns (returncode, stdout, stderr, seconds, started).

    `started` is the `time.monotonic()` reading just before the spawn; on
    Linux that clock is shared by all processes, so a child can report how
    long after its own spawn it became ready.
    """
    started = time.monotonic()
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\ntimed out after {PROCESS_TIMEOUT_S} s"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out, err, time.perf_counter() - t0, started


def setup(workload: str, env) -> tuple[list[float], dict, list[str]]:
    """Spawn set-up probes; each is timed from its spawn to its ready line."""
    times, machine, failures = [], {}, []
    for _ in range(SETUP_PROBES):
        code, out, err, _, started = spawn(
            [sys.executable, HERE / "worker.py", "probe", "--workload", workload], env)
        lines = out.splitlines()
        if code != 0 or len(lines) != 2 or not lines[0].startswith("ready "):
            failures.append(f"set-up probe exited {code}: {err.strip()[-300:]}")
            continue
        times.append(float(lines[0].split()[1]) - started)
        machine = machine or json.loads(lines[1])["machine"]
    return times, machine, failures


def read_classifier(path) -> dict:
    with open(path) as fh:
        rows = [ln.strip().split(",") for ln in fh if ln.strip()]
    if not rows or rows[0] != ["j", "a_j"]:
        raise ValueError(f"{path} is not a classifier CSV")
    return {int(j): float(v) for j, v in rows[1:]}


class Ops:
    """Attempted operations and the failure messages of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, error: str | None, attempted: int = 1) -> None:
        self.attempted += attempted
        if error:
            self.failures.append(error)


def cli_roundtrip_rep(seed: int, work: Path, env, ops: Ops, spans_dir: Path | None) -> dict:
    """One round trip in the fresh directory `work`, as a user would start one.

    Returns wall time, per-command process times and errors.
    """
    work.mkdir()
    t0 = time.perf_counter()
    times = {"generate_s": 0.0, "solve_s": 0.0, "check_s": 0.0}
    errors: list[float] = []
    steps = 0

    def command(kind: str, *argv):
        nonlocal steps
        steps += 1
        if spans_dir is None:
            cmd = [sys.executable, "-m", "l1svm", *argv]
        else:
            cmd = [sys.executable, HERE / "traced_cli.py", spans_dir / f"{steps}.json", *argv]
        code, out, err, seconds, _ = spawn(cmd, env)
        times[f"{kind}_s"] += seconds
        return code, out, err

    train, truth = work / "train.csv", work / "truth.csv"
    code, _, err = command("generate", "generate", *CLI_SHAPE, "--seed", seed,
                           "--out", train, "--classifier-out", truth)
    ops.record(f"generate exited {code}: {err.strip()[-300:]}" if code else None)
    a = read_classifier(truth) if code == 0 else {}
    R = sum(abs(v) for v in a.values())
    for method, capped in CLI_METHODS.items():
        w_path = work / f"w_{method}.csv"
        code, _, err = command("solve", "solve", "--method", method, "--data", train,
                               "--R", f"{R:.17g}", "--out", w_path)
        problem = f"solve {method} exited {code}: {err.strip()[-300:]}" if code else None
        if problem is None:
            try:
                w = read_classifier(w_path)
                bad = verify.check_classifier(list(w.values()), R, capped)
            except (OSError, ValueError) as exc:
                bad = f"unreadable output: {exc}"
            if bad:
                problem = f"solve {method}: {bad}"
            else:
                errors.append(verify.l2_direction_error(a, w))
        ops.record(problem)
    code, out, _ = command("check", "check", "--suite", "lemma7")
    ops.record(verify.check_lemma7(code, out))
    wall = time.perf_counter() - t0
    train.unlink(missing_ok=True)  # 16 MB per repetition; the run directory stays small
    return {"wall": wall, "errors": errors, **times}


def cli_roundtrip(args, work: Path, env, ops: Ops) -> dict:
    count = itertools.count()

    def rep(spans_dir=None):
        return cli_roundtrip_rep(args.seed, work / f"rep{next(count)}", env, ops, spans_dir)

    start = time.perf_counter()
    reps = [rep()]
    if args.trace:
        # untraced, traced, untraced: the bracket cancels a steady drift in machine speed
        spans_dir = work / "spans"
        spans_dir.mkdir()
        traced = rep(spans_dir)
        reps.append(rep())
        groups, extras = [], []
        for path in sorted(spans_dir.glob("*.json")):
            spans, extra = load(path)
            groups.append(spans)
            extras.append(extra)
        process = {k: median(r[k] for r in reps) for k in ("generate_s", "solve_s", "check_s")}
        process["import_s"] = [e["import_s"] for e in extras]
        process["overhead_s"] = traced["wall"] - median(r["wall"] for r in reps)
        return {"spans": merge(groups), "process": process, "reps": reps}
    while time.perf_counter() - start + median(r["wall"] for r in reps) <= args.seconds:
        reps.append(rep())
    for later in reps[1:]:
        ops.record(None if later["errors"] == reps[0]["errors"] else
                   "a repeated round trip with the same seed gave different errors", 0)
    errors = reps[0]["errors"]
    wall = median(r["wall"] for r in reps)
    return {
        "reps": reps,
        "wall_s": wall,
        "trials_per_s": len(CLI_METHODS) / wall,
        "mean_l2_error": sum(errors) / len(errors) if errors else 0.0,
    }


def sweep(args, work: Path, env, ops: Ops) -> dict:
    out_path, spans_path = work / "worker.json", work / "spans.json"
    code, _, err, _, _ = spawn(
        [sys.executable, HERE / "worker.py", "run", "--workload", args.workload,
         "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
         "--out", out_path, "--spans", spans_path], env)
    if code != 0:
        ops.record(f"sweep worker exited {code}: {err.strip()[-500:]}")
        return {}
    res = json.loads(out_path.read_text())
    ops.record(None, res["solves"] + res["sweeps"])
    ops.failures.extend(res["failures"])
    if args.trace:
        spans, _ = load(spans_path)
        process = {"import_s": [res["import_s"]], "overhead_s": res["overhead_s"]}
        return {"spans": spans, "process": process, "walls": res["walls"]}
    errors = [e for row in res["rows"] for e in row["trial_l2_errors"]]
    wall = median(res["walls"])
    return {
        "walls": res["walls"],
        "wall_s": wall,
        "trials_per_s": sum(row["trials"] for row in res["rows"]) / wall,
        "mean_l2_error": sum(errors) / len(errors),
        "rows": res["rows"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="l1svm benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "l1svm" / "__init__.py").is_file():
        print(f"error: no l1svm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = python_env()
    ops = Ops()
    setup_times, machine, setup_failures = setup(args.workload, env)
    for problem in setup_failures:
        ops.record(problem)
    ops.record(None, len(setup_times))
    run = cli_roundtrip if args.workload == "cli_roundtrip" else sweep
    res = run(args, work, env, ops)

    if args.trace:
        spans = res.get("spans", [])
        bad = nesting_violations(spans)
        ops.record("; ".join(bad[:5]) if bad else None)
        values = layer_metrics(spans, res.get("process", {}))
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        values = {"setup_s": median(setup_times), "wall_s": res.get("wall_s", 0.0),
                  "trials_per_s": res.get("trials_per_s", 0.0), "peak_rss_mb": peak}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    failed = len(ops.failures)
    attempted = max(ops.attempted, failed, 1)
    error_rate = failed / attempted
    # printed and saved but not declared as metrics: mean_l2_error varies too
    # much between seeds on a one-instance workload, error_rate is 0 when all is well
    reported = {"mean_l2_error": res.get("mean_l2_error"), "error_rate": error_rate}
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "setup_samples_s": setup_times,
        **reported, "failures": ops.failures,
        "details": {k: v for k, v in res.items() if k != "spans"},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(result, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"machine {machine.get('cpu_model', '?')} x{machine.get('nproc', '?')}")
    for name, m in metrics.items():
        label = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}{label}")
    if reported["mean_l2_error"] is not None:
        print(f"  {'mean_l2_error':36s} {reported['mean_l2_error']:>16.6g} 1  (not gated)")
    print(f"  {'error_rate':36s} {error_rate:>16.6g} 1  ({failed}/{attempted} operations)")
    for problem in ops.failures[:10]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
