"""Command-line front-end wiring ingestion -> labeling -> evaluation.

Subcommands: label, eval-nlp, auc, localize, eval-loc, stats, split,
selftest. Every command accepts --config (flat key=value file, also
found via the CXRLABEL_CONFIG environment variable) plus per-key
override flags; precedence is defaults < config file < flags. Exit
codes: 0 success, 1 evaluation/assertion failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import dataclass
from typing import Optional

from cxrlabel.errors import (
    CxrLabelError,
    DegenerateLabels,
    read_lines,
)
from cxrlabel.labeling import (
    get_config,
    label_all,
    read_labels_wide_csv,
    read_scores_csv,
    write_labels_tsv,
    write_labels_wide_csv,
)
from cxrlabel.lazy import np
from cxrlabel.lexicon import (
    Lexicon,
    default_lexicon,
    load_external_mentions,
    load_lexicon,
)
from cxrlabel.localization import (
    DEFAULT_THRESHOLDS,
    BBox,
    Heatmap,
    boxes_from_heatmap,
    boxes_from_heatmaps,
    iobb,
    iou,
    load_boxes,
    load_heatmaps,
    normalize_heatmap,
    write_boxes,
)
from cxrlabel.metrics import (
    T_GRID_IOBB,
    T_GRID_IOU,
    localization_sweep,
    prf1,
    roc_auc,
    roc_counts,
)
from cxrlabel.negation import (
    RuleSet,
    default_rules,
    load_rules,
    propagate_conjuncts,
)
from cxrlabel.pooling import (
    LOSSES,
    avg_pool,
    cel,
    compose_heatmaps,
    lse_pool,
    max_pool,
    wcel,
    wcel_gradient,
)
from cxrlabel.reports import load_corpus, load_dependency_file
from cxrlabel.stats import (
    cooccurrence_matrix,
    label_counts,
    patient_split,
    write_counts_csv,
    write_matrix_csv,
    write_split_tsv,
)

ENV_CONFIG = "CXRLABEL_CONFIG"

_CONFIG_KEYS = ("label_set", "lexicon", "rules", "thresholds", "r", "loss", "seed")
_LOSS_NAMES = tuple(LOSSES)


class MissingInput(Exception):
    """Named input path does not exist; rendered as 'error: <name>: not found'."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


def _require(path: Optional[str], name: str) -> str:
    if path is None or not os.path.exists(path):
        raise MissingInput(name)
    return path


@dataclass(frozen=True)
class RunConfig:
    label_set: str = "x8"
    lexicon: Optional[str] = None  # None = packaged default
    rules: Optional[str] = None
    thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS
    r: float = 10.0
    loss: str = "wcel"
    seed: int = 0

    def __post_init__(self):
        get_config(self.label_set)
        if any(not 0 <= t <= 255 for t in self.thresholds):
            raise CxrLabelError(f"thresholds outside 0..255: {self.thresholds}")
        if not self.thresholds:
            raise CxrLabelError("thresholds must be nonempty")
        if not self.r > 0:
            raise CxrLabelError(f"r must be > 0, got {self.r}")
        if self.loss not in _LOSS_NAMES:
            raise CxrLabelError(f"unknown loss {self.loss!r}")


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise CxrLabelError(f"config line {line_no}: bad entry {line!r}")
        values[key] = value
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file (--config or CXRLABEL_CONFIG) < CLI flags."""
    values: dict[str, str] = {}
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        values.update(_load_config_file(_require(path, "config")))
    for key in _CONFIG_KEYS:
        override = getattr(args, key, None)
        if override is not None:
            values[key] = override
    kwargs: dict = {}
    if "label_set" in values:
        kwargs["label_set"] = values["label_set"].lower()
    for key in ("lexicon", "rules", "loss"):
        if key in values:
            kwargs[key] = values[key]
    if "thresholds" in values:
        try:
            kwargs["thresholds"] = tuple(
                int(v) for v in str(values["thresholds"]).split(",") if v.strip()
            )
        except ValueError:
            raise CxrLabelError(
                f"bad thresholds {values['thresholds']!r}"
            ) from None
    for key, cast in (("r", float), ("seed", int)):
        if key in values:
            try:
                kwargs[key] = cast(values[key])
            except ValueError:
                raise CxrLabelError(f"bad {key} {values[key]!r}") from None
    return RunConfig(**kwargs)


def _print_config(config: RunConfig):
    shown = {
        "label_set": config.label_set,
        "lexicon": config.lexicon or "<builtin>",
        "rules": config.rules or "<builtin>",
        "thresholds": ",".join(str(t) for t in config.thresholds),
        "r": f"{config.r:g}",
        "loss": config.loss,
        "seed": str(config.seed),
    }
    for key in _CONFIG_KEYS:
        print(f"config: {key}={shown[key]}", file=sys.stderr)


def _lexicon_for(config: RunConfig) -> Lexicon:
    if config.lexicon is None:
        return default_lexicon()
    return load_lexicon(_require(config.lexicon, "lexicon"))


def _rules_for(config: RunConfig) -> RuleSet:
    if config.rules is None:
        return default_rules()
    return load_rules(_require(config.rules, "rules"))


# --- subcommands ---

def cmd_label(args, config: RunConfig) -> int:
    corpus = load_corpus(_require(args.corpus, "corpus"))
    graphs = load_dependency_file(_require(args.deps, "deps"))
    if args.propagate:
        graphs = {ref: propagate_conjuncts(g) for ref, g in graphs.items()}
    corpus = corpus.with_graphs(graphs)
    lexicon = _lexicon_for(config)
    ruleset = _rules_for(config)
    label_config = get_config(config.label_set)

    categories = lexicon.categories()
    uncovered = [c for c in label_config.classes if c not in categories]
    if uncovered:
        print(
            "warning: no lexicon coverage for classes: " + ", ".join(uncovered),
            file=sys.stderr,
        )

    external = []
    if args.external_mentions:
        path = _require(args.external_mentions, "external-mentions")
        external = load_external_mentions(path)
    labels = label_all(corpus, lexicon, ruleset, label_config, external)
    labels = sorted(labels, key=lambda record: record.report_id)
    with open(args.out_tsv, "w", encoding="utf-8") as handle:
        write_labels_tsv(labels, label_config, handle)
    with open(args.out_csv, "w", encoding="utf-8") as handle:
        write_labels_wide_csv(labels, label_config, handle)
    return 0


def cmd_eval_nlp(args, config: RunConfig) -> int:
    gold, label_config = read_labels_wide_csv(_require(args.gold, "gold"))
    predicted, _ = read_labels_wide_csv(_require(args.pred, "pred"), label_config)
    result = prf1(predicted, gold, label_config)
    with open(args.out, "w", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        names = [name for name, _ in result.rows()]
        writer.writerow(["metric", *names])
        for metric in ("precision", "recall", "f1"):
            writer.writerow(
                [metric]
                + [f"{getattr(score, metric):.6f}" for _, score in result.rows()]
            )
        for metric in ("tp", "fp", "fn"):
            writer.writerow(
                [metric] + [str(getattr(score, metric)) for _, score in result.rows()]
            )
    return 0


def _csv_cell(value: str) -> str:
    """`value` as csv.writer writes it in a row of several cells."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([value, ""])
    return buffer.getvalue()[:-2]


def _put_rates(out: np.ndarray, k: np.ndarray, n: int):
    """Write each rate `k / n` (0 <= k <= n) into the 8 byte columns of
    `out` as `f"{k / n:.6f}"` writes it.

    The rate is rounded to millionths exactly in integers. Away from a
    rational tie the rate is at least 1 / (2n * 10^6) from the rounding
    boundary, which for n < 2**32 is more than the error of the double
    k / n, so both round alike. At a tie the double decides, so those
    entries are formatted as floats."""
    millionths, rest = np.divmod(k * 1_000_000, n)
    millionths += 2 * rest > n
    for i in np.flatnonzero(2 * rest == n):
        millionths[i] = int(f"{int(k[i]) / n:.6f}".replace(".", ""))
    for column in range(7, 1, -1):
        millionths, digit = np.divmod(millionths, 10)
        out[:, column] = digit + ord("0")
    out[:, 1] = ord(".")
    out[:, 0] = millionths + ord("0")


def _roc_block(name: str, tp: np.ndarray, fp: np.ndarray) -> bytes:
    """The `--roc-out` lines of class `name` from its `roc_counts`: the
    point (0, 0), then (fp / fp[-1], tp / tp[-1]) at each threshold, as
    UTF-8 bytes with the rates in fixed columns."""
    prefix = f"{_csv_cell(name)},".encode()
    width = len(prefix)
    rows = np.empty((len(tp) + 1, width + 18), dtype=np.uint8)
    rows[:, :width] = np.frombuffer(prefix, dtype=np.uint8)
    _put_rates(rows[:, width:width + 8], np.append(0, fp), int(fp[-1]))
    rows[:, width + 8] = ord(",")
    _put_rates(rows[:, width + 9:width + 17], np.append(0, tp), int(tp[-1]))
    rows[:, width + 17] = ord("\n")
    return rows.tobytes()


def cmd_auc(args, config: RunConfig) -> int:
    classes, report_ids, scores = read_scores_csv(_require(args.scores, "scores"))
    gold, label_config = read_labels_wide_csv(_require(args.labels, "labels"))
    rows = gold.rows_of(report_ids)
    if rows is None:
        raise CxrLabelError("scores and labels cover different report ids")
    column = {cls: k for k, cls in enumerate(classes)}
    for cls in label_config.classes:
        if cls not in column:
            raise CxrLabelError(f"scores CSV lacks class {cls!r}")
    labels = gold.y[rows]
    cells: list[str] = []
    curves: list[tuple[str, tuple]] = []  # (class, roc_counts) for --roc-out
    for index, cls in enumerate(label_config.classes):
        score_vec = scores[:, column[cls]]
        label_vec = labels[:, index]
        try:
            counts = roc_counts(score_vec, label_vec)
        except DegenerateLabels:
            cells.append("NA")
            continue
        cells.append(f"{roc_auc(score_vec, label_vec, counts):.6f}")
        if args.roc_out:
            curves.append((cls, counts))
    with open(args.out, "w", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["metric", *label_config.classes])
        writer.writerow(["AUC", *cells])
    if args.roc_out:
        with open(args.roc_out, "wb") as handle:
            handle.write(b"class,fpr,tpr\n")
            for cls, (tp, fp) in curves:
                handle.write(_roc_block(cls, tp, fp))
    return 0


def cmd_localize(args, config: RunConfig) -> int:
    heatmaps = load_heatmaps(_require(args.heatmaps, "heatmaps"))
    boxes = boxes_from_heatmaps(heatmaps, config.thresholds)
    boxes.sort(
        key=lambda b: (b.image_id, b.label, b.threshold, b.y, b.x, b.w, b.h)
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        write_boxes(boxes, handle, with_threshold=True)
    return 0


def cmd_eval_loc(args, config: RunConfig) -> int:
    detections = load_boxes(_require(args.dets, "dets"), with_threshold=True)
    gts = load_boxes(_require(args.gt, "gt"))
    grid = None if args.t is None else (args.t,)
    results = localization_sweep(detections, gts, args.mode, grid, args.n_images)
    classes = sorted(set(detections.labels) | set(gts.labels))
    with open(args.out, "w", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["mode", "T", "metric", *classes])
        for result in results:
            writer.writerow(
                [result.mode, f"{result.threshold:g}", "Acc"]
                + [
                    f"{result.acc[c]:.6f}" if c in result.acc else "NA"
                    for c in classes
                ]
            )
            writer.writerow(
                [result.mode, f"{result.threshold:g}", "AFP"]
                + [f"{result.afp[c]:.6f}" for c in classes]
            )
    return 0


def cmd_stats(args, config: RunConfig) -> int:
    labels, label_config = read_labels_wide_csv(_require(args.labels, "labels"))
    counts = label_counts(labels, label_config)
    matrix = cooccurrence_matrix(labels, label_config)
    with open(args.out_counts, "w", encoding="utf-8") as handle:
        write_counts_csv(counts, label_config, handle)
    with open(args.out_matrix, "w", encoding="utf-8") as handle:
        write_matrix_csv(matrix, label_config, handle)
    return 0


def cmd_split(args, config: RunConfig) -> int:
    corpus = load_corpus(_require(args.corpus, "corpus"))
    by_patient: dict[str, list[str]] = {}
    for report in corpus.reports:
        by_patient.setdefault(report.patient_id, []).append(report.report_id)
    patients = sorted(by_patient.items())
    split = patient_split(patients, seed=config.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        write_split_tsv(split, handle)
    return 0


# --- selftest ---

def _selftest_checks():
    rng = np.random.default_rng(20260815)

    def lse_constant():
        return abs(lse_pool([3.25] * 6, 5.0) - 3.25) < 1e-12

    def lse_bounds_monotone():
        for _ in range(50):
            region = rng.normal(size=9)
            previous = None
            for r in (0.1, 0.5, 1, 5, 8, 10, 12):
                value = lse_pool(region, r)
                if not (
                    avg_pool(region) - 1e-9 <= value <= max_pool(region) + 1e-9
                ):
                    return False
                if previous is not None and value < previous - 1e-9:
                    return False
                previous = value
        return True

    def wcel_hand_value():
        return abs(wcel([1, 0], [0.5, 0.5]) - 4 * np.log(2)) < 1e-12

    def wcel_twice_cel():
        y = [1, 0, 1, 0]
        f = rng.uniform(0.05, 0.95, size=4)
        return abs(wcel(y, f) - 2 * cel(y, f)) < 1e-12

    def gradient_matches_fd():
        y = rng.integers(0, 2, size=12)
        while y.min() == y.max():
            y = rng.integers(0, 2, size=12)
        f = rng.uniform(0.1, 0.9, size=12)
        grad = wcel_gradient(y, f)
        h = 1e-5
        for i in range(12):
            up, down = f.copy(), f.copy()
            up[i] += h
            down[i] -= h
            fd = (wcel(y, up) - wcel(y, down)) / (2 * h)
            if abs(fd - grad[i]) > 1e-5 * max(1.0, abs(fd)):
                return False
        return True

    def compose_linear():
        act1 = rng.normal(size=(4, 4, 3))
        act2 = rng.normal(size=(4, 4, 3))
        w = rng.normal(size=(3, 2))
        lhs = compose_heatmaps(act1 + act2, w)
        rhs = compose_heatmaps(act1, w) + compose_heatmaps(act2, w)
        return bool(np.all(np.abs(lhs - rhs) < 1e-10))

    def overlap_derived_values():
        a = BBox("i", "c", 0, 0, 10, 10)
        b = BBox("i", "c", 5, 0, 10, 10)
        return abs(iou(a, b) - 1 / 3) < 1e-15 and abs(iobb(a, b) - 0.5) < 1e-15

    def normalize_rounding():
        out = normalize_heatmap(np.array([[0.0, 0.5], [1.0, 1.0]]))
        flat = normalize_heatmap(np.full((3, 3), 7.0))
        return (
            out[0, 0] == 0 and out[0, 1] == 128 and out[1, 0] == 255
            and int(flat.sum()) == 0
        )

    def threshold_nesting():
        for _ in range(20):
            grid = np.zeros((12, 12))
            for _ in range(3):
                cy, cx = rng.uniform(2, 10, size=2)
                yy, xx = np.mgrid[0:12, 0:12]
                grid += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 4.0)
            heatmap = Heatmap("i", "c", grid, 1024)
            boxes = boxes_from_heatmap(heatmap, (60, 180))
            outer = [b for b in boxes if b.threshold == 60]
            for inner in (b for b in boxes if b.threshold == 180):
                if not any(
                    o.x - 1e-9 <= inner.x
                    and o.y - 1e-9 <= inner.y
                    and inner.x + inner.w <= o.x + o.w + 1e-9
                    and inner.y + inner.h <= o.y + o.h + 1e-9
                    for o in outer
                ):
                    return False
        return True

    def auc_cases():
        return (
            roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
            and roc_auc([0.5, 0.5, 0.5], [1, 0, 1]) == 0.5
            and roc_auc([0.1, 0.9], [1, 0]) == 0.0
        )

    def split_roundtrip():
        patients = [(f"p{i:03d}", [f"im{i}"]) for i in range(10)]
        first = patient_split(patients, seed=7)
        second = patient_split(list(reversed(patients)), seed=7)
        sizes = [
            sum(1 for v in first.patients.values() if v == part)
            for part in ("train", "val", "test")
        ]
        return first.patients == second.patients and sizes == [7, 1, 2]

    return [
        ("lse constant region", lse_constant),
        ("lse bounded and monotone in r", lse_bounds_monotone),
        ("balanced loss hand value 4*ln(2)", wcel_hand_value),
        ("balanced loss = 2x plain on even batches", wcel_twice_cel),
        ("analytic gradient matches finite differences", gradient_matches_fd),
        ("heatmap composition linear", compose_linear),
        ("iou 1/3 and iobb 0.5 derived boxes", overlap_derived_values),
        ("normalization rounds half-up", normalize_rounding),
        ("high-threshold boxes nest in low-threshold boxes", threshold_nesting),
        ("auc canonical values", auc_cases),
        ("patient split deterministic 7/1/2", split_roundtrip),
    ]


def cmd_selftest(args, config: RunConfig) -> int:
    checks = _selftest_checks()
    failures = 0
    for name, check in checks:
        ok = bool(check())
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures} passed, {failures} failed")
    return 0 if failures == 0 else 1


# --- parser wiring ---

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--label-set", dest="label_set", choices=("x8", "x14"))
    common.add_argument("--lexicon", help="lexicon TSV (default: builtin)")
    common.add_argument("--rules", help="rules DSL file (default: builtin)")
    common.add_argument("--thresholds", help="comma-separated 0..255 values")
    common.add_argument("--r", help="pooling sharpness > 0")
    common.add_argument("--loss", choices=_LOSS_NAMES)
    common.add_argument("--seed", help="integer seed")

    parser = argparse.ArgumentParser(
        prog="cxrlabel",
        description="Mine disease labels from chest X-ray reports and score "
        "weakly-supervised localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", parents=[common],
                       help="corpus + dependencies -> label tables")
    p.add_argument("--corpus", required=True)
    p.add_argument("--deps", required=True)
    p.add_argument("--external-mentions")
    p.add_argument("--propagate", action="store_true",
                   help="propagate conjunct dependencies before matching rules")
    p.add_argument("--out-tsv", required=True)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("eval-nlp", parents=[common],
                       help="P/R/F1 of predicted vs gold label tables")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_nlp)

    p = sub.add_parser("auc", parents=[common], help="per-class ROC AUC")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--roc-out", help="also export ROC curve points")
    p.set_defaults(func=cmd_auc)

    p = sub.add_parser("localize", parents=[common],
                       help="heatmaps -> thresholded detection boxes")
    p.add_argument("--heatmaps", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("eval-loc", parents=[common],
                       help="localization Acc/AFP at overlap threshold(s)")
    p.add_argument("--dets", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mode", choices=("iou", "iobb"), required=True)
    p.add_argument("--t", type=float, help="single threshold; default sweeps "
                   f"{T_GRID_IOU} (iou) or {T_GRID_IOBB} (iobb)")
    p.add_argument("--n-images", type=int, dest="n_images",
                   help="evaluation image count for AFP")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_loc)

    p = sub.add_parser("stats", parents=[common],
                       help="label counts and co-occurrence matrix")
    p.add_argument("--labels", required=True)
    p.add_argument("--out-counts", required=True)
    p.add_argument("--out-matrix", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", parents=[common],
                       help="seeded patient-level 70/10/20 split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("selftest", parents=[common],
                       help="run kernel property checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        _print_config(config)
        return args.func(args, config)
    except MissingInput as err:
        print(f"error: {err.name}: not found", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err.filename}: {err.strerror}", file=sys.stderr)
        return 2
    except CxrLabelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
