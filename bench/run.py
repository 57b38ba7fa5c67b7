"""cxrlabel benchmark: label, localize and evaluate workloads.

    python3 bench/run.py --workload {label,localize,evaluate} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a cxrlabel checkout; the program is used from
`src/` as checked out. The run generates its inputs from `--seed` and
the fixtures in `tests/data` under `.bench_work/`, times whole passes of
the workload in a fresh worker process for about S seconds, each
against a fixed reference loop timed beside it (see worker.reference),
checks every output against the oracles in `oracles.py`, and prints one
JSON object as its last line of standard output. With `--trace 0` it
holds the end-to-end metrics, with `--trace 1` the per-layer metrics of
a traced run. Lines before it give the machine, the input properties and a
readable summary. Exit code 0 means every output was right, 1 that a
step failed or an output was wrong, 2 that there is no program to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import generate
from oracles import CHECKS
from tracing import SPANS
from worker import OUTPUTS, REFERENCE_S, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "data"
WORK = ROOT / ".bench_work"

WORKER_TIMEOUT_S = 150

# What one unit of throughput is on each workload.
UNIT_NAME = {"label": "reports_per_s", "localize": "images_per_s",
             "evaluate": "reports_per_s"}

# Counts reported as they are, per traced full-size pass.
RAW_COUNTS = (
    "reports.edge_scans",
    "negation.apply_rules_calls",
    "negation.lemma_calls",
    "lexicon.mentions",
    "localization.regions",
    "localization.boxes",
    "localization.overlap_calls",
    "pooling.lse_pool_calls",
    "metrics.roc_thresholds",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for name in [*SPANS, "cli.self"]:
        units[f"{name}_s"] = "s"
        units[f"{name}_exp"] = "exponent"
    units["reports.split_sentences_calls"] = "1/report"
    for name in RAW_COUNTS:
        units[name] = "count"
    units["labeling.scan_useful_ratio"] = "ratio"
    units["trace.throughput_ratio"] = "ratio"
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CXRLABEL_CONFIG", None)
    env["PYTHONPATH"] = str(SRC)
    # A fixed hash seed keeps set and dict orders, and so the work done,
    # the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def make_inputs(workload: str, seed: int, out: Path, quarter: bool = False):
    if workload == "label":
        copies = generate.LABEL_COPIES // 4 if quarter else generate.LABEL_COPIES
        return generate.make_label(FIXTURES, out, seed, copies)
    if workload == "localize":
        images = generate.LOCALIZE_IMAGES // 4 if quarter else generate.LOCALIZE_IMAGES
        return generate.make_localize(out, seed, images)
    rows = generate.EVALUATE_ROWS // 4 if quarter else generate.EVALUATE_ROWS
    return generate.make_evaluate(FIXTURES, out, seed, rows)


def run_worker(args, work: Path, env) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--inputs", str(work / "in"),
           "--out", str(work / "out"), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", "--quarter-inputs", str(work / "in_quarter"),
                "--quarter-out", str(work / "out_quarter")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tally(workload: str, passes: list[dict], problems: dict, out: Path):
    """(attempted, failed, messages) over every step of every pass. A step
    fails on a nonzero exit, on output that differs from the checked
    output, or when the checked output is wrong (`problems`, reported by
    the caller)."""
    checked = {step: digest(out, names) for step, names in OUTPUTS[workload].items()}
    attempted = failed = 0
    messages = []
    for run in passes:
        for step in run["steps"]:
            attempted += 1
            bad = (step["rc"] != 0 or step["digest"] != checked[step["step"]]
                   or problems.get(step["step"]))
            if bad:
                failed += 1
                if step["rc"] != 0:
                    messages.append(f"{step['step']} exited {step['rc']}: {step['error']}")
                elif step["digest"] != checked[step["step"]]:
                    messages.append(f"{step['step']}: output differs between passes")
    return attempted, failed, messages


def _exp(full: float, quarter: float) -> float:
    """log4 of the full- to quarter-size time; 0 where the stage did not run."""
    if full <= 0 or quarter <= 0:
        return 0.0
    return math.log(full / quarter, 4)


def _stage_times(data: dict) -> dict[str, float]:
    """Self time of each span name; for a CLI subcommand its whole time."""
    times = {
        name: (data["inclusive"] if name.startswith("cli.") else data["self"]).get(name, 0.0)
        for name in SPANS
    }
    times["cli.self"] = sum(v for k, v in data["self"].items() if k.startswith("cli."))
    return times


def layer_metrics(size: int, rounds: list[dict], counted: dict) -> dict[str, float]:
    """Per-layer times as the median over traced rounds, plus the exact
    counts of the counted pass."""
    per_round = []
    for rnd in rounds:
        full, quarter = _stage_times(rnd["full"]), _stage_times(rnd["quarter"])
        row = {}
        for name, value in full.items():
            row[f"{name}_s"] = value
            row[f"{name}_exp"] = _exp(value, quarter[name])
        row["trace.throughput_ratio"] = rnd["untraced_seconds"] / rnd["full"]["seconds"]
        per_round.append(row)
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    counts = counted["counts"]
    metrics["reports.split_sentences_calls"] = (
        counts.get("reports.split_sentences_calls", 0) / size)
    for name in RAW_COUNTS:
        metrics[name] = counts.get(name, 0)
    scanned = counts.get("labeling.mentions_scanned", 0)
    metrics["labeling.scan_useful_ratio"] = (
        counts.get("labeling.mentions_used", 0) / scanned if scanned else 0.0)
    return metrics


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(OUTPUTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cxrlabel" / "cli.py").is_file() or not FIXTURES.is_dir():
        print(f"error: no cxrlabel checkout at {ROOT} (need src/cxrlabel and tests/data)",
              file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = make_inputs(args.workload, args.seed, work / "in")
    quarter = None
    if args.trace:
        quarter = make_inputs(args.workload, args.seed, work / "in_quarter", quarter=True)
    env = child_env()

    try:
        record = run_worker(args, work, env)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {args.workload} worker failed: {exc}", file=sys.stderr)
        return 1

    check = CHECKS[args.workload]
    problems = check(inputs, work / "out")
    passes = record["passes"]
    if args.trace:
        passes = passes + [r["full"] for r in record["rounds"]] + [record["counted"]]
    else:
        passes = [{"steps": record["warmup_steps"]}] + passes
    attempted, failed, messages = tally(args.workload, passes, problems, work / "out")
    if args.trace:
        q_problems = check(quarter, work / "out_quarter")
        qa, qf, qm = tally(args.workload, [r["quarter"] for r in record["rounds"]],
                           q_problems, work / "out_quarter")
        attempted, failed, messages = attempted + qa, failed + qf, messages + qm
        problems = {**{f"{k} (quarter)": v for k, v in q_problems.items()}, **problems}
    messages = [f"{step}: {p}" for step, ps in problems.items() for p in ps] + messages
    setup = [p["setup"] for p in record["passes"] if "setup" in p]
    setup_failed = sum(rc != 0 for _, rc in setup)
    attempted += len(setup)
    failed += setup_failed
    if setup_failed:
        messages.append(f"{setup_failed} of {len(setup)} setup launches failed")

    props = dict(inputs.props)
    if args.workload == "label":
        props["mentions"] = record["mentions"]
    if args.workload == "localize":
        props["boxes"] = len((work / "out" / "dets.tsv").read_text().splitlines())
    pass_seconds = [p["seconds"] for p in record["passes"]]
    # Each pass and each set-up launch in units of the reference loop run
    # just before and just after it (see worker.reference).
    pass_refs = [p["seconds"] / statistics.mean(p["ref"])
                 for p in record["passes"] if "ref" in p]
    setup_refs = [p["setup"][0] / statistics.mean(p["setup_ref"])
                  for p in record["passes"] if "setup_ref" in p]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "src_lines": src_lines(),
        "inputs": props,
        "passes": len(pass_seconds),
        "pass_seconds": [round(s, 4) for s in pass_seconds],
        "pass_in_reference_loops": [round(r, 3) for r in pass_refs],
        "reference_s": round(statistics.median(
            t for p in record["passes"] for t in p.get("ref", [])), 4) if pass_refs else None,
        "unscaled_items_per_s": inputs.size / statistics.median(pass_seconds),
        "unscaled_setup_s": statistics.median(t for t, _ in setup) if setup else None,
        "clients": "closed loop, one client: passes run one after another",
        "wait": "none: one process, one thread, no queue between layers",
        "error_rate": failed / attempted,
        "problems": messages[:20],
    }
    print("info " + json.dumps(info))

    if args.trace:
        metrics = layer_metrics(inputs.size, record["rounds"], record["counted"])
        units = per_layer_units()
        top = sorted((v, k) for k, v in metrics.items()
                     if k.endswith("_s") and not k.startswith("cli."))[-5:]
        print(f"{args.workload} traced: largest self times "
              + ", ".join(f"{k}={v:.3f} s" for v, k in reversed(top))
              + f"; error_rate={failed / attempted:g} ({failed} of {attempted} steps)")
    else:
        metrics = {
            "items_per_s": inputs.size / (statistics.median(pass_refs) * REFERENCE_S),
            "setup_s": statistics.median(setup_refs) * REFERENCE_S,
            "peak_rss_mb": record["maxrss_kb"] / 1024,
        }
        units = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"{args.workload}: {UNIT_NAME[args.workload]}={metrics['items_per_s']:.2f} 1/s"
              f", setup_s={metrics['setup_s']:.4f} s"
              f", peak_rss_mb={metrics['peak_rss_mb']:.1f} MB"
              f", error_rate={failed / attempted:g} ({failed} of {attempted} steps)")
    for message in messages[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
