"""Command-line front-end wiring ingestion -> labeling -> evaluation.

Subcommands: label, eval-nlp, auc, localize, eval-loc, stats, split,
selftest. Every command accepts --config (flat key=value file, also
found via the CXRLABEL_CONFIG environment variable) plus per-key
override flags; precedence is defaults < config file < flags. Exit
codes: 0 success, 1 evaluation/assertion failure, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import io
import os
import sys
from typing import Optional

from cxrlabel.errors import (
    DEFAULT_THRESHOLDS,
    LOSS_NAMES,
    T_GRID_IOBB,
    T_GRID_IOU,
    CxrLabelError,
    DegenerateLabels,
    MalformedRecord,
    NotUtf8,
    SpanOutOfRange,
    label_set,
    read_lines,
    read_rows,
)
from cxrlabel.lazy import _lazy_module, np, record

# Every layer runs on the first read of one of its attributes, in the
# command that uses it, so a start runs none of them and each command
# only the layers it reads (see `cxrlabel.lazy`). Each is registered even
# where no command reads it through its handle (`pooling`), so that a
# tracer such as `bench/tracing.py` finds every layer in `sys.modules`
# after `import cxrlabel.cli`. `lexicon` is the name of a lexicon here,
# so its layer's handle is `lex`.
labeling = _lazy_module("cxrlabel.labeling")
lex = _lazy_module("cxrlabel.lexicon")
localization = _lazy_module("cxrlabel.localization")
metrics = _lazy_module("cxrlabel.metrics")
negation = _lazy_module("cxrlabel.negation")
pooling = _lazy_module("cxrlabel.pooling")
reports = _lazy_module("cxrlabel.reports")
stats = _lazy_module("cxrlabel.stats")

# The layer of each loader that programs read on this module (PEP 562):
# the benchmark's set-up launch calls the loaders of the packaged lexicon
# and rules, and its tracer checks that it wraps `load_corpus` here.
_LOADERS = {"default_lexicon": lex, "default_rules": negation, "load_corpus": reports}


def __getattr__(name: str):
    layer = _LOADERS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(layer, name)


ENV_CONFIG = "CXRLABEL_CONFIG"

_CONFIG_KEYS = ("label_set", "lexicon", "rules", "thresholds", "r", "loss", "seed")


class MissingInput(Exception):
    """Named input path does not exist; rendered as 'error: <name>: not found'."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


def _read(load, path: Optional[str], name: str, *args, **kwargs):
    """`load(path, ...)` of the input `name`, which must exist. A located
    error raised while reading it names the file as NotUtf8 does: `line
    N: <reason>`, or a loader's `row N: <reason>`, becomes `<path>: line
    N: <reason>`."""
    if path is None or not os.path.exists(path):
        raise MissingInput(name)
    try:
        return load(path, *args, **kwargs)
    except CxrLabelError as err:
        line = getattr(err, "line_no", getattr(err, "row_no", None))
        if line is not None and not isinstance(err, NotUtf8):
            reason = str(err).removeprefix(f"line {line}: ")
            reason = reason.removeprefix(f"row {line}: ")
            err.args = (f"{path}: line {line}: {reason}",)
        raise


@contextlib.contextmanager
def _output(path: str, binary: bool = False):
    """A handle on a file beside `path` (or its symlink's target) that takes
    its mode and replaces it once the block succeeds; an existing non-file
    (`/dev/null`, a pipe) opens in place. Errors name `path`."""
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = path if in_place else os.path.realpath(path)
    temp = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        with (open(temp, "wb") if binary
              else open(temp, "w", encoding="utf-8")) as handle:
            yield handle
        if not in_place:
            if os.path.exists(target):
                os.chmod(temp, os.stat(target).st_mode & 0o7777)
            os.replace(temp, target)
    except BaseException as err:
        if not in_place and os.path.exists(temp):
            os.remove(temp)
        if isinstance(err, OSError):
            err.filename, err.filename2 = path, None
        raise


@record
class RunConfig:
    label_set: str = "x8"
    lexicon: Optional[str] = None  # None = packaged default
    rules: Optional[str] = None
    thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS
    r: float = 10.0
    loss: str = "wcel"
    seed: int = 0

    def __post_init__(self):
        label_set(self.label_set)
        if any(not 0 <= t <= 255 for t in self.thresholds):
            raise CxrLabelError(f"thresholds outside 0..255: {self.thresholds}")
        if not self.thresholds:
            raise CxrLabelError("thresholds must be nonempty")
        if not self.r > 0:
            raise CxrLabelError(f"r must be > 0, got {self.r}")
        if self.loss not in LOSS_NAMES:
            raise CxrLabelError(f"unknown loss {self.loss!r}")


def _load_config_file(path: str) -> dict:
    """The RunConfig field of each entry of a config file, each value
    checked at its line."""
    values: dict = {}
    for line_no, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise MalformedRecord(f"bad entry {line!r}", line_no)
        try:
            values[key] = _config_value(key, value)
            RunConfig(**{key: values[key]})  # checks the value, with defaults
        except CxrLabelError as err:
            raise MalformedRecord(str(err), line_no) from None
    return values


def _config_value(key: str, value: str):
    """The RunConfig field `key` of a config file's or a flag's `value`."""
    try:
        if key == "thresholds":
            return tuple(int(v) for v in value.split(",") if v.strip())
        if key in ("r", "seed"):
            return (float if key == "r" else int)(value)
    except ValueError:
        raise CxrLabelError(f"bad {key} {value!r}") from None
    return value.lower() if key == "label_set" else value


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file (--config or CXRLABEL_CONFIG) < CLI flags."""
    values: dict = {}
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        values.update(_read(_load_config_file, path, "config"))
    for key in _CONFIG_KEYS:
        override = getattr(args, key, None)
        if override is not None:
            values[key] = _config_value(key, override)
    return RunConfig(**values)


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


def _lexicon_for(config: RunConfig) -> lex.Lexicon:
    if config.lexicon is None:
        return lex.default_lexicon()
    return _read(lex.load_lexicon, config.lexicon, "lexicon")


def _rules_for(config: RunConfig) -> negation.RuleSet:
    if config.rules is None:
        return negation.default_rules()
    return _read(negation.load_rules, config.rules, "rules")


# --- subcommands ---

def cmd_label(args, config: RunConfig) -> int:
    corpus = _read(reports.load_corpus, args.corpus, "corpus")
    graphs = _read(reports.load_dependency_file, args.deps, "deps")
    if args.propagate:
        graphs = {ref: negation.propagate_conjuncts(g) for ref, g in graphs.items()}
    corpus = corpus.with_graphs(graphs)
    lexicon = _lexicon_for(config)
    ruleset = _rules_for(config)
    label_config = labeling.get_config(config.label_set)

    categories = lexicon.categories()
    uncovered = [c for c in label_config.classes if c not in categories]
    if uncovered:
        print(
            "warning: no lexicon coverage for classes: " + ", ".join(uncovered),
            file=sys.stderr,
        )

    external = []
    if args.external_mentions:
        external = _read(lex.load_external_mentions, args.external_mentions,
                         "external-mentions")
    try:
        labels = labeling.label_all(corpus, lexicon, ruleset, label_config, external)
    except SpanOutOfRange as err:
        raise _at_mention_row(err, args.external_mentions, external)
    labels = sorted(labels, key=lambda record: record.report_id)
    with _output(args.out_tsv) as handle:
        labeling.write_labels_tsv(labels, label_config, handle)
    with _output(args.out_csv) as handle:
        labeling.write_labels_wide_csv(labels, label_config, handle)
    return 0


def _at_mention_row(err: SpanOutOfRange, path: str, mentions: list) -> SpanOutOfRange:
    """`err`, raised for one of `mentions`, which were read from the rows
    of `path` one per row and in order, named at that mention's line as
    `_read` names an error. Spans are checked in that order, so the first
    row that gives the same mention is the one that failed; the rows are
    read again only here, on the error path."""
    line = read_rows(path, 7, "mention row")[mentions.index(err.mention)][0]
    err.args = (f"{path}: line {line}: {err}",)
    return err


def cmd_eval_nlp(args, config: RunConfig) -> int:
    gold, label_config = _read(labeling.read_labels_wide_csv, args.gold, "gold")
    predicted, _ = _read(labeling.read_labels_wide_csv, args.pred, "pred", label_config)
    result = metrics.prf1(predicted, gold, label_config)
    with _output(args.out) as handle:
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
    classes, report_ids, scores = _read(labeling.read_scores_csv, args.scores, "scores")
    gold, label_config = _read(labeling.read_labels_wide_csv, args.labels, "labels")
    rows = gold.rows_of(report_ids)
    if rows is None:
        raise CxrLabelError("scores and labels cover different report ids")
    column = {cls: k for k, cls in enumerate(classes)}
    for cls in label_config.classes:
        if cls not in column:
            raise CxrLabelError(f"{args.scores}: line 1: scores CSV lacks class {cls!r}")
    labels = gold.y[rows]
    cells: list[str] = []
    curves: list[tuple[str, tuple]] = []  # (class, roc_counts) for --roc-out
    for index, cls in enumerate(label_config.classes):
        score_vec = scores[:, column[cls]]
        label_vec = labels[:, index]
        try:
            counts = metrics.roc_counts(score_vec, label_vec)
        except DegenerateLabels:
            cells.append("NA")
            continue
        cells.append(f"{metrics.roc_auc(score_vec, label_vec, counts):.6f}")
        if args.roc_out:
            curves.append((cls, counts))
    with _output(args.out) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["metric", *label_config.classes])
        writer.writerow(["AUC", *cells])
    if args.roc_out:
        with _output(args.roc_out, binary=True) as handle:
            handle.write(b"class,fpr,tpr\n")
            for cls, (tp, fp) in curves:
                handle.write(_roc_block(cls, tp, fp))
    return 0


def cmd_localize(args, config: RunConfig) -> int:
    heatmaps = _read(localization.load_heatmaps, args.heatmaps, "heatmaps")
    boxes = localization.boxes_from_heatmaps(heatmaps, config.thresholds)
    with _output(args.out) as handle:
        localization.write_boxes(boxes.take(_box_order(boxes)), handle,
                                 with_threshold=True)
    return 0


def _box_order(boxes: localization.BoxTable) -> np.ndarray:
    """The rows of a detection table by (image_id, class, threshold, y,
    x, w, h), ties in table order: one stable lexsort. The (image_id,
    class) keys are ranked with Python's string order, which numpy strings
    do not keep (they drop trailing NULs)."""
    keys = list(zip(boxes.image_ids, boxes.labels))
    rank = {key: k for k, key in enumerate(sorted(set(keys)))}
    x, y, w, h = boxes.xywh.T
    return np.lexsort((h, w, x, y, boxes.thresholds, [rank[key] for key in keys]))


def cmd_eval_loc(args, config: RunConfig) -> int:
    detections = _read(localization.load_boxes, args.dets, "dets", with_threshold=True)
    gts = _read(localization.load_boxes, args.gt, "gt")
    grid = None if args.t is None else (args.t,)
    results = metrics.localization_sweep(detections, gts, args.mode, grid,
                                         args.n_images)
    classes = sorted(set(detections.labels) | set(gts.labels))
    with _output(args.out) as handle:
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
    labels, label_config = _read(labeling.read_labels_wide_csv, args.labels, "labels")
    counts = stats.label_counts(labels, label_config)
    matrix = stats.cooccurrence_matrix(labels, label_config)
    with _output(args.out_counts) as handle:
        stats.write_counts_csv(counts, label_config, handle)
    with _output(args.out_matrix) as handle:
        stats.write_matrix_csv(matrix, label_config, handle)
    return 0


def cmd_split(args, config: RunConfig) -> int:
    corpus = _read(reports.load_corpus, args.corpus, "corpus")
    by_patient: dict[str, list[str]] = {}
    for report in corpus.reports:
        by_patient.setdefault(report.patient_id, []).append(report.report_id)
    patients = sorted(by_patient.items())
    split = stats.patient_split(patients, seed=config.seed)
    with _output(args.out) as handle:
        stats.write_split_tsv(split, handle)
    return 0


# --- selftest ---

def _selftest_checks():
    from cxrlabel.localization import (
        BBox,
        Heatmap,
        boxes_from_heatmap,
        iobb,
        iou,
        normalize_heatmap,
    )
    from cxrlabel.metrics import roc_auc
    from cxrlabel.pooling import (
        avg_pool,
        cel,
        compose_heatmaps,
        lse_pool,
        max_pool,
        wcel,
        wcel_gradient,
    )
    from cxrlabel.stats import patient_split

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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call: do not modify it. It holds no function: `main` runs the
    `cmd_<command>` this module holds when it is called."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--label-set", dest="label_set", choices=("x8", "x14"))
    common.add_argument("--lexicon", help="lexicon TSV (default: builtin)")
    common.add_argument("--rules", help="rules DSL file (default: builtin)")
    common.add_argument("--thresholds", help="comma-separated 0..255 values")
    common.add_argument("--r", help="pooling sharpness > 0")
    common.add_argument("--loss", choices=LOSS_NAMES)
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

    p = sub.add_parser("eval-nlp", parents=[common],
                       help="P/R/F1 of predicted vs gold label tables")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("auc", parents=[common], help="per-class ROC AUC")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--roc-out", help="also export ROC curve points")

    p = sub.add_parser("localize", parents=[common],
                       help="heatmaps -> thresholded detection boxes")
    p.add_argument("--heatmaps", required=True)
    p.add_argument("--out", required=True)

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

    p = sub.add_parser("stats", parents=[common],
                       help="label counts and co-occurrence matrix")
    p.add_argument("--labels", required=True)
    p.add_argument("--out-counts", required=True)
    p.add_argument("--out-matrix", required=True)

    p = sub.add_parser("split", parents=[common],
                       help="seeded patient-level 70/10/20 split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    sub.add_parser("selftest", parents=[common], help="run kernel property checks")

    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector off, then restore
    the caller's setting. A command's heap is acyclic (a collection after
    each warm command finds 0 unreachable objects), so the collector would
    only re-walk every live report: 30% of `label` at 10^5 reports."""
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        config = resolve_config(args)
        _print_config(config)
        return globals()["cmd_" + args.command.replace("-", "_")](args, config)
    except MissingInput as err:
        print(f"error: {err.name}: not found", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err.filename}: {err.strerror}", file=sys.stderr)
        return 2
    except CxrLabelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
