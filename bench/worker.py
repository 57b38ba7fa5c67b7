"""One benchmark process: runs whole passes of a workload through the CLI.

    python3 bench/worker.py --workload W --inputs DIR --out DIR --seconds S
        [--trace --quarter-inputs DIR --quarter-out DIR]

A pass calls `cxrlabel.cli.main` once per step, one after another, in
this single process and thread (a closed loop with one client). A first
pass warms caches and gives the peak resident memory; then timed passes
repeat until S seconds have gone by, each followed by a set-up launch
(see SETUP_CODE), and every pass and launch is bracketed by runs of a
fixed reference loop (see `reference`). The last line of standard output
is a JSON record: each pass's wall time, each step's exit code and
output digest, the set-up launch made after it, the reference times
around both, and the peak resident memory after the first pass. With
--trace, each round runs an untraced pass, a traced pass and a traced
pass on the quarter-size inputs, and the record holds the traced self
times and counts; the spans of the last traced pass go to spans.jsonl.
A last full-size pass with the hot counters on gives the exact counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

# Step name -> files it writes, per workload, in pass order.
OUTPUTS = {
    "label": {
        "label": ["labels.tsv", "labels.csv"],
        "eval-nlp": ["prf1.csv"],
    },
    "localize": {
        "localize": ["dets.tsv"],
        "eval-loc-iobb": ["loc_iobb.csv"],
        "eval-loc-iou": ["loc_iou.csv"],
        "pool": ["pooled.tsv"],
    },
    "evaluate": {
        "auc": ["auc.csv", "roc.csv"],
        "eval-nlp": ["prf1.csv"],
        "stats": ["counts.csv", "matrix.csv"],
        "split": ["split.tsv"],
    },
}


def cli_steps(workload: str, inp: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The CLI argument lists of one pass."""
    i = {name: str(inp / name) for name in (
        "corpus.tsv", "deps.tsv", "gold.csv", "pred.csv", "scores.csv",
        "heatmaps.tsv", "gt.tsv",
    )}
    o = {name: str(out / name) for step in OUTPUTS[workload].values() for name in step}
    if workload == "label":
        return [
            ("label", ["label", "--corpus", i["corpus.tsv"], "--deps", i["deps.tsv"],
                       "--propagate", "--out-tsv", o["labels.tsv"],
                       "--out-csv", o["labels.csv"]]),
            ("eval-nlp", ["eval-nlp", "--pred", o["labels.csv"], "--gold",
                          i["gold.csv"], "--out", o["prf1.csv"]]),
        ]
    if workload == "localize":
        return [
            ("localize", ["localize", "--heatmaps", i["heatmaps.tsv"],
                          "--out", o["dets.tsv"]]),
            ("eval-loc-iobb", ["eval-loc", "--dets", o["dets.tsv"], "--gt", i["gt.tsv"],
                               "--mode", "iobb", "--out", o["loc_iobb.csv"]]),
            ("eval-loc-iou", ["eval-loc", "--dets", o["dets.tsv"], "--gt", i["gt.tsv"],
                              "--mode", "iou", "--out", o["loc_iou.csv"]]),
        ]
    return [
        ("auc", ["auc", "--scores", i["scores.csv"], "--labels", i["gold.csv"],
                 "--out", o["auc.csv"], "--roc-out", o["roc.csv"]]),
        ("eval-nlp", ["eval-nlp", "--pred", i["pred.csv"], "--gold", i["gold.csv"],
                      "--out", o["prf1.csv"]]),
        ("stats", ["stats", "--labels", i["gold.csv"], "--out-counts", o["counts.csv"],
                   "--out-matrix", o["matrix.csv"]]),
        ("split", ["split", "--corpus", i["corpus.tsv"], "--out", o["split.tsv"]]),
    ]


def _pool(inp: Path, out: Path):
    """Pool every heatmap at the config's r and score the config's loss
    against whether the map has a ground-truth box."""
    from cxrlabel import cli, localization, pooling

    args = cli.build_parser().parse_args(
        ["localize", "--heatmaps", str(inp / "heatmaps.tsv"), "--out", str(out / "dets.tsv")]
    )
    config = cli.resolve_config(args)
    heatmaps = localization.load_heatmaps(inp / "heatmaps.tsv")
    with_gt = {(b.image_id, b.label) for b in localization.load_boxes(inp / "gt.tsv")}
    pooled = [pooling.lse_pool(h.grid, config.r) for h in heatmaps]
    y = [int((h.image_id, h.label) in with_gt) for h in heatmaps]
    loss = pooling.LOSSES[config.loss](y, pooled)
    return config, heatmaps, pooled, y, loss


def _write_pooled(path: Path, config, heatmaps, pooled, y, loss):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"#r={config.r!r}\tloss={config.loss}\tvalue={loss!r}\n")
        for heatmap, value, label in zip(heatmaps, pooled, y):
            handle.write(f"{heatmap.image_id}\t{heatmap.label}\t{value!r}\t{label}\n")


def run_pass(workload: str, inp: Path, out: Path):
    """One whole pass. Returns (seconds, steps); each step is a dict with
    its name, exit code and, when it failed, a message."""
    from cxrlabel import cli

    out.mkdir(parents=True, exist_ok=True)
    steps = []
    pooled = None
    start = time.perf_counter()
    for name, argv in cli_steps(workload, inp, out):
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed step, not a dead run
            rc, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        steps.append({"step": name, "rc": rc,
                      "error": None if rc == 0 else err.getvalue().strip()[-500:]})
    if workload == "localize":
        try:
            pooled = _pool(inp, out)
            steps.append({"step": "pool", "rc": 0, "error": None})
        except Exception as exc:
            steps.append({"step": "pool", "rc": 1, "error": f"{type(exc).__name__}: {exc}"})
    seconds = time.perf_counter() - start
    if pooled is not None:
        _write_pooled(out / "pooled.tsv", *pooled)
    for step in steps:
        step["digest"] = digest(out, OUTPUTS[workload][step["step"]])
    return seconds, steps


def digest(out: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        path = out / name
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


# The fixed start-up cost of every CLI call: a fresh interpreter imports
# the CLI, resolves the default config and loads the packaged lexicon and
# rules. Launches are spread between passes, so that a burst of load on
# the machine moves few of them.
SETUP_CODE = (
    "import cxrlabel.cli as c; "
    "c.resolve_config(c.build_parser().parse_args(['selftest'])); "
    "c.default_lexicon(); c.default_rules()"
)


def launch_setup() -> tuple[float, int]:
    """Wall time and exit code of one fresh interpreter doing the setup."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True, timeout=60)
    return time.perf_counter() - start, proc.returncode


def reference() -> int:
    """Fixed pure-Python work that does not touch cxrlabel: builds about
    20k small records over generated words, indexes them in a dict of
    lists, sums and sorts them. It takes about 0.1 s.

    The hosts this benchmark runs on are shared, and other tenants slow
    this process by up to 2x, for seconds to minutes, without showing as
    steal or lost CPU time. The same slowdown reaches this loop, which is
    the same kind of work as the program's (objects, dicts, strings,
    sorting) and never changes, so the time of a pass over the time of
    this loop run just before and just after it is steady where the pass
    time alone is not.
    """
    words = [f"w{(i * 7919) % 4001}" for i in range(20000)]
    records = [{"w": word + str(i % 97), "n": i, "k": (i * 7919) % 10007}
               for i, word in enumerate(words)]
    index: dict[str, list[dict]] = {}
    for record in records:
        index.setdefault(record["w"], []).append(record)
    total = sum(sum(r["k"] for r in index[key]) for key in sorted(index))
    records.sort(key=lambda r: (r["k"], r["w"]))
    return total + records[0]["n"]


# The nominal time of one `reference` loop. Throughput and set-up time
# are reported as if the loop took this long, that is, at one fixed
# speed of the machine.
REFERENCE_S = 0.1


def time_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def _mentions(inp: Path) -> int:
    from cxrlabel.lexicon import default_lexicon, match_concepts
    from cxrlabel.reports import load_corpus

    lexicon = default_lexicon()
    return sum(len(match_concepts(s, lexicon)) for s in load_corpus(inp / "corpus.tsv").sentences())


def _traced_pass(workload: str, inp: Path, out: Path, spans_path=None,
                 hot_counters: bool = False):
    from tracing import Tracer

    tracer = Tracer(hot_counters)
    tracer.install()
    try:
        seconds, steps = run_pass(workload, inp, out)
    finally:
        tracer.uninstall()
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return {
        "seconds": seconds,
        "steps": steps,
        "self": tracer.self_times(),
        "inclusive": tracer.inclusive_times(),
        "counts": dict(tracer.counts),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(OUTPUTS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quarter-inputs", type=Path)
    parser.add_argument("--quarter-out", type=Path)
    args = parser.parse_args(argv)

    import cxrlabel.cli  # noqa: F401  (imports stay out of the timed passes)

    record: dict = {"passes": []}
    start = time.perf_counter()
    if not args.trace:
        # The warm-up pass runs before any reference loop, so that the
        # peak memory is the pass's own.
        _, steps = run_pass(args.workload, args.inputs, args.out)
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["warmup_steps"] = steps
        ref = time_reference()
        while not record["passes"] or time.perf_counter() - start < args.seconds:
            seconds, steps = run_pass(args.workload, args.inputs, args.out)
            ref_after = time_reference()
            setup = launch_setup()
            setup_ref_after = time_reference()
            record["passes"].append({"seconds": seconds, "steps": steps,
                                     "ref": [ref, ref_after], "setup": setup,
                                     "setup_ref": [ref_after, setup_ref_after]})
            ref = setup_ref_after
    else:
        record["rounds"] = []
        while not record["rounds"] or time.perf_counter() - start < args.seconds:
            seconds, steps = run_pass(args.workload, args.inputs, args.out)
            record["passes"].append({"seconds": seconds, "steps": steps})
            full = _traced_pass(args.workload, args.inputs, args.out,
                                args.out / "spans.jsonl")
            quarter = _traced_pass(args.workload, args.quarter_inputs, args.quarter_out)
            record["rounds"].append({"untraced_seconds": seconds, "full": full,
                                     "quarter": quarter})
        record["counted"] = _traced_pass(args.workload, args.inputs, args.out,
                                         hot_counters=True)
    if args.workload == "label":
        record["mentions"] = _mentions(args.inputs)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
