"""Independent checks of every output a pass writes.

Each `check_<workload>` reads the generated inputs and the pass's output
files and returns {step: [problem, ...]}; an empty list means the step's
output is right. Nothing here calls cxrlabel: labels come from the
fixture table, regions from scipy.ndimage, overlaps from pixel counts,
matching from exhaustive search and AUC from pair enumeration.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
from scipy import ndimage

from generate import X8_CLASSES, Inputs

# Labels and (tp, fp, fn) the pipeline gives each fixture report, as
# tabulated by hand in tests/test_acceptance.py (EXPECTED_LABELS,
# EXPECTED_COUNTS). Conjunct propagation leaves them unchanged.
FIXTURE_LABELS = {
    "r01": (("Effusion",), "TARGET_FINDINGS"),
    "r02": ((), "NORMAL"),
    "r03": (("Cardiomegaly", "Effusion"), "TARGET_FINDINGS"),
    "r04": (("Pneumonia",), "TARGET_FINDINGS"),
    "r05": ((), "NORMAL"),
    "r06": (("Atelectasis",), "TARGET_FINDINGS"),
    "r07": ((), "OTHER_FINDINGS_ONLY"),
    "r08": (("Mass",), "TARGET_FINDINGS"),
    "r09": ((), "NORMAL"),
    "r10": (("Nodule",), "TARGET_FINDINGS"),
    "r11": (("Infiltration",), "TARGET_FINDINGS"),
    "r12": ((), "NORMAL"),
    "r13": (("Atelectasis", "Pneumonia"), "TARGET_FINDINGS"),
    "r14": ((), "OTHER_FINDINGS_ONLY"),
    "r15": (("Cardiomegaly",), "TARGET_FINDINGS"),
    "r16": ((), "NORMAL"),
    "r17": (("Atelectasis", "Effusion"), "TARGET_FINDINGS"),
    "r18": ((), "NORMAL"),
    "r19": ((), "NORMAL"),
    "r20": ((), "NORMAL"),
}
FIXTURE_COUNTS = {
    "Atelectasis": (3, 0, 0),
    "Cardiomegaly": (2, 0, 0),
    "Effusion": (2, 1, 1),
    "Infiltration": (1, 0, 0),
    "Mass": (1, 0, 0),
    "Nodule": (1, 0, 0),
    "Pneumonia": (1, 1, 0),
    "Pneumothorax": (0, 0, 1),
    "Normal": (5, 3, 0),
    "Total": (16, 5, 2),
}

IOBB_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
IOU_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
BOX_THRESHOLDS = (60, 180)
POOL_R = 10.0


def _read(path: Path) -> list[str]:
    if not path.exists():
        raise FileNotFoundError(f"{path.name} was not written")
    return path.read_text(encoding="utf-8").splitlines()


def _guard(problems: dict, step: str, check, *args):
    """Run one step's check; a missing or unparsable file is a problem too."""
    try:
        problems[step].extend(check(*args))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems[step].append(f"unreadable output: {type(exc).__name__}: {exc}")


def _prf1_rows(counts: dict[str, tuple[int, int, int]]) -> list[str]:
    """The eval-nlp CSV for the given per-row (tp, fp, fn)."""
    names = list(counts)

    def ratio(a, b):
        return a / b if b else 0.0

    prec = [ratio(tp, tp + fp) for tp, fp, _ in counts.values()]
    rec = [ratio(tp, tp + fn) for tp, _, fn in counts.values()]
    f1 = [ratio(2 * p * r, p + r) for p, r in zip(prec, rec)]
    rows = [",".join(["metric", *names])]
    for label, values in (("precision", prec), ("recall", rec), ("f1", f1)):
        rows.append(",".join([label] + [f"{v:.6f}" for v in values]))
    for k, label in enumerate(("tp", "fp", "fn")):
        rows.append(",".join([label] + [str(c[k]) for c in counts.values()]))
    return rows


def _compare(name: str, got: list[str], want: list[str]) -> list[str]:
    if got == want:
        return []
    for n, (a, b) in enumerate(itertools.zip_longest(got, want)):
        if a != b:
            return [f"{name} line {n + 1}: got {a!r}, want {b!r}"]
    return []


# --- label ---

def _check_labels(inputs: Inputs, out: Path) -> list[str]:
    source = inputs.truth["source"]
    want_csv = [",".join(["report_id", *X8_CLASSES, "status"])]
    want_tsv = []
    for rid in sorted(source):
        positives, status = FIXTURE_LABELS[source[rid]]
        y = ["1" if cls in positives else "0" for cls in X8_CLASSES]
        want_csv.append(",".join([rid, *y, status]))
        want_tsv.append(f"{rid}\t{status}\t{'|'.join(positives)}")
    return (_compare("labels.csv", _read(out / "labels.csv"), want_csv)
            + _compare("labels.tsv", _read(out / "labels.tsv"), want_tsv))


def _check_label_prf1(inputs: Inputs, out: Path) -> list[str]:
    copies = inputs.truth["copies"]
    counts = {name: tuple(copies * v for v in c) for name, c in FIXTURE_COUNTS.items()}
    return _compare("prf1.csv", _read(out / "prf1.csv"), _prf1_rows(counts))


def check_label(inputs: Inputs, out: Path) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = defaultdict(list)
    _guard(problems, "label", _check_labels, inputs, out)
    _guard(problems, "eval-nlp", _check_label_prf1, inputs, out)
    return problems


# --- localize ---

def _read_heatmaps(path: Path):
    lines = _read(path)
    maps = []
    i = 0
    while i < len(lines):
        image_id, label, size, dim = lines[i].split("\t")
        size = int(size)
        grid = np.array([[float(v) for v in row.split()] for row in lines[i + 1 : i + 1 + size]])
        maps.append((image_id, label, grid, float(dim)))
        i += 1 + size
    return maps


def _normalize(grid: np.ndarray) -> np.ndarray:
    """Linear map onto 0..255, rounding half up (the documented rule)."""
    lo, hi = float(grid.min()), float(grid.max())
    if hi == lo:
        return np.zeros(grid.shape, dtype=int)
    return np.floor((grid - lo) * (255.0 / (hi - lo)) + 0.5).astype(int)


def _expected_boxes(maps) -> Counter:
    rows = Counter()
    for image_id, label, grid, dim in maps:
        norm = _normalize(grid)
        cell = dim / grid.shape[0]
        for t in BOX_THRESHOLDS:
            labelled, _ = ndimage.label(norm > t, structure=np.ones((3, 3), dtype=int))
            for sl in ndimage.find_objects(labelled):
                r, c = sl
                x, y = c.start * cell, r.start * cell
                w, h = (c.stop - c.start) * cell, (r.stop - r.start) * cell
                rows[f"{image_id}\t{label}\t{x:g}\t{y:g}\t{w:g}\t{h:g}\t{t}"] += 1
    return rows


def _check_dets(maps, out: Path) -> list[str]:
    got = Counter(_read(out / "dets.tsv"))
    want = _expected_boxes(maps)
    if got == want:
        return []
    extra = sorted((got - want).elements())[:3]
    missing = sorted((want - got).elements())[:3]
    return [f"dets.tsv differs from scipy regions: extra {extra}, missing {missing}"]


def _int_box(fields: list[str]) -> tuple[int, int, int, int]:
    x, y, w, h = (float(v) for v in fields)
    if not all(v.is_integer() for v in (x, y, w, h)):
        raise ValueError(f"box {fields} is not on the pixel grid")
    return int(x), int(y), int(x + w), int(y + h)


def _pixels(a, b) -> tuple[int, int, int]:
    """(intersection, |a|, |b|) by counting the pixels each box covers."""
    cols = len(range(max(a[0], b[0]), min(a[2], b[2])))
    rows = len(range(max(a[1], b[1]), min(a[3], b[3])))
    return cols * rows, (a[2] - a[0]) * (a[3] - a[1]), (b[2] - b[0]) * (b[3] - b[1])


def _raster_pixels(a, b, dim: int) -> tuple[int, int, int]:
    """The same counts from two rasterised masks: the slow reference."""
    ma = np.zeros((dim, dim), dtype=bool)
    mb = np.zeros((dim, dim), dtype=bool)
    ma[a[1]:a[3], a[0]:a[2]] = True
    mb[b[1]:b[3], b[0]:b[2]] = True
    return int(np.sum(ma & mb)), int(ma.sum()), int(mb.sum())


def _overlap(mode: str, gt, det) -> float:
    inter, area_gt, area_det = _pixels(gt, det)
    if mode == "iobb":
        return inter / area_det
    return inter / (area_gt + area_det - inter)


def _best_matching(gts, dets, mode: str, t: float) -> int:
    """Largest one-to-one matching with overlap > t, by exhaustive search."""
    for size in range(min(len(gts), len(dets)), 0, -1):
        for det_pick in itertools.permutations(range(len(dets)), size):
            for gt_pick in itertools.combinations(range(len(gts)), size):
                if all(_overlap(mode, gts[g], dets[d]) > t for g, d in zip(gt_pick, det_pick)):
                    return size
    return 0


def _expected_loc(mode: str, dets, gts) -> list[str]:
    classes = sorted({k[1] for k in dets} | {k[1] for k in gts})
    images = {k[0] for k in dets} | {k[0] for k in gts}
    rows = [",".join(["mode", "T", "metric", *classes])]
    for t in IOBB_GRID if mode == "iobb" else IOU_GRID:
        matched = Counter()
        unmatched = Counter()
        total = Counter()
        for key in set(dets) | set(gts):
            g, d = gts.get(key, []), dets.get(key, [])
            hit = _best_matching(g, d, mode, t)
            matched[key[1]] += hit
            unmatched[key[1]] += len(d) - hit
            total[key[1]] += len(g)
        acc = [f"{matched[c] / total[c]:.6f}" if total[c] else "NA" for c in classes]
        afp = [f"{unmatched[c] / len(images):.6f}" for c in classes]
        rows.append(",".join([mode, f"{t:g}", "Acc", *acc]))
        rows.append(",".join([mode, f"{t:g}", "AFP", *afp]))
    return rows


def _group_boxes(lines: list[str]) -> dict[tuple[str, str], list]:
    groups: dict[tuple[str, str], list] = defaultdict(list)
    for line in lines:
        fields = line.split("\t")
        groups[(fields[0], fields[1])].append(_int_box(fields[2:6]))
    return groups


def _check_loc(mode: str, inputs: Inputs, out: Path) -> list[str]:
    dets = _group_boxes(_read(out / "dets.tsv"))
    gts = _group_boxes(_read(inputs.files["gt"]))
    problems = []
    # Cross-check the interval pixel count against rasterised masks on a
    # seeded sample of (gt, det) pairs.
    rng = np.random.default_rng(len(dets))
    pairs = [(g, d) for key in gts for g in gts[key] for d in dets.get(key, [])]
    for k in rng.choice(len(pairs), size=min(16, len(pairs)), replace=False):
        g, d = pairs[int(k)]
        if _pixels(g, d) != _raster_pixels(g, d, 1024):
            problems.append(f"pixel count disagrees for gt {g} det {d}")
    name = f"loc_{mode}.csv"
    return problems + _compare(name, _read(out / name), _expected_loc(mode, dets, gts))


def _check_pool(maps, inputs: Inputs, out: Path) -> list[str]:
    lines = _read(out / "pooled.tsv")
    header = dict(field.split("=", 1) for field in lines[0].lstrip("#").split("\t"))
    problems = []
    if float(header["r"]) != POOL_R or header["loss"] != "wcel":
        return [f"pooled.tsv ran r={header['r']} loss={header['loss']}, want r={POOL_R} wcel"]
    f, y = [], []
    for (image_id, label, grid, _), line, has_gt in zip(maps, lines[1:], inputs.truth["has_gt"]):
        got_id, got_label, value, got_y = line.split("\t")
        naive = math.log(np.mean(np.exp(POOL_R * grid))) / POOL_R
        if (got_id, got_label) != (image_id, label) or int(got_y) != int(has_gt):
            problems.append(f"pooled.tsv row {image_id}/{label} misaligned")
        elif abs(float(value) - naive) > 1e-9 * max(1.0, abs(naive)):
            problems.append(f"lse pool of {image_id}/{label}: {value} vs naive {naive!r}")
        f.append(float(value))
        y.append(int(has_gt))
    if len(lines) - 1 != len(maps):
        problems.append(f"pooled.tsv has {len(lines) - 1} rows for {len(maps)} maps")
    # Balanced cross-entropy, written out from its definition.
    f_arr = np.clip(np.array(f), 1e-7, 1 - 1e-7)
    y_arr = np.array(y)
    n_pos, n_neg = int(y_arr.sum()), int(len(y_arr) - y_arr.sum())
    want = (len(y_arr) / n_pos) * -sum(math.log(v) for v in f_arr[y_arr == 1]) + (
        len(y_arr) / n_neg) * -sum(math.log(1 - v) for v in f_arr[y_arr == 0])
    got = float(header["value"])
    if abs(got - want) > 1e-9 * abs(want):
        problems.append(f"wcel loss {got!r} vs naive {want!r}")
    return problems


def check_localize(inputs: Inputs, out: Path) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = defaultdict(list)
    maps = _read_heatmaps(inputs.files["heatmaps"])
    _guard(problems, "localize", _check_dets, maps, out)
    _guard(problems, "eval-loc-iobb", _check_loc, "iobb", inputs, out)
    _guard(problems, "eval-loc-iou", _check_loc, "iou", inputs, out)
    _guard(problems, "pool", _check_pool, maps, inputs, out)
    return problems


# --- evaluate ---

def _read_table(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    ids = [row[0] for row in rows[1:]]
    return rows[0], ids, rows[1:]


def _auc_by_pairs(scores: np.ndarray, labels: np.ndarray) -> float:
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = 0.0
    for chunk in np.array_split(pos, max(1, len(pos) // 512)):
        wins += np.sum(chunk[:, None] > neg[None, :])
        wins += 0.5 * np.sum(chunk[:, None] == neg[None, :])
    return wins / (len(pos) * len(neg))


def _check_auc(inputs: Inputs, out: Path) -> list[str]:
    _, ids, gold_rows = _read_table(inputs.files["gold"])
    _, score_ids, score_rows = _read_table(inputs.files["scores"])
    order = {rid: k for k, rid in enumerate(score_ids)}
    y = np.array([[int(v) for v in row[1:-1]] for row in gold_rows])
    s = np.array([[float(v) for v in score_rows[order[rid]][1:]] for rid in ids])
    problems = []
    lines = _read(out / "auc.csv")
    if lines[0] != ",".join(["metric", *X8_CLASSES]) or len(lines) != 2:
        return [f"auc.csv header {lines[0]!r}"]
    cells = lines[1].split(",")[1:]
    roc = defaultdict(list)
    for line in _read(out / "roc.csv")[1:]:
        cls, fpr, tpr = line.split(",")
        roc[cls].append((float(fpr), float(tpr)))
    for c, cls in enumerate(X8_CLASSES):
        points = roc[cls]
        if y[:, c].min() == y[:, c].max():
            if cells[c] != "NA" or points:
                problems.append(f"AUC {cls}: {cells[c]} for one-sided labels, want NA")
            continue
        want = _auc_by_pairs(s[:, c], y[:, c])
        if abs(float(cells[c]) - want) > 5e-7 + 1e-12:
            problems.append(f"AUC {cls}: {cells[c]} vs pair enumeration {want:.9f}")
        distinct = len(np.unique(s[:, c]))
        if len(points) != distinct + 1:
            problems.append(f"ROC {cls}: {len(points)} points for {distinct} thresholds")
        if not points or points[0] != (0.0, 0.0) or points[-1] != (1.0, 1.0):
            problems.append(f"ROC {cls} does not run from (0, 0) to (1, 1)")
        if any(b[0] < a[0] or b[1] < a[1] for a, b in zip(points, points[1:])):
            problems.append(f"ROC {cls} is not monotone")
        # The point of the k-th highest distinct score, counted directly,
        # on a seeded sample of k.
        thresholds = np.unique(s[:, c])[::-1]
        pos, neg = s[y[:, c] == 1, c], s[y[:, c] == 0, c]
        rng = np.random.default_rng(c)
        for k in rng.choice(len(thresholds), size=min(20, len(thresholds)), replace=False):
            if k + 1 >= len(points):
                break
            t = thresholds[k]
            want = (f"{np.mean(neg >= t):.6f}", f"{np.mean(pos >= t):.6f}")
            if (f"{points[k + 1][0]:.6f}", f"{points[k + 1][1]:.6f}") != want:
                problems.append(f"ROC {cls} at score {t}: {points[k + 1]} vs counted {want}")
                break
    return problems


def _status_normal(status: str) -> int:
    return int(status == "NORMAL")


def _check_eval_prf1(inputs: Inputs, out: Path) -> list[str]:
    _, ids, gold_rows = _read_table(inputs.files["gold"])
    _, _, pred_rows = _read_table(inputs.files["pred"])
    pred = {row[0]: row for row in pred_rows}
    counts = {}
    columns = [(cls, lambda row, c=c: int(row[1 + c])) for c, cls in enumerate(X8_CLASSES)]
    columns.append(("Normal", lambda row: _status_normal(row[-1])))
    for name, value in columns:
        tp = fp = fn = 0
        for row in gold_rows:
            g, p = value(row), value(pred[row[0]])
            tp += p and g
            fp += p and not g
            fn += g and not p
        counts[name] = (tp, fp, fn)
    counts["Total"] = tuple(sum(c[k] for c in counts.values()) for k in range(3))
    return _compare("prf1.csv", _read(out / "prf1.csv"), _prf1_rows(counts))


def _check_stats(inputs: Inputs, out: Path) -> list[str]:
    _, _, gold_rows = _read_table(inputs.files["gold"])
    C = len(X8_CLASSES)
    matrix = [[0] * C for _ in range(C)]
    totals = [0] * C
    overlaps = [0] * C
    normal = 0
    for row in gold_rows:
        y = [int(v) for v in row[1:-1]]
        for a in range(C):
            totals[a] += y[a]
            overlaps[a] += y[a] and sum(y) >= 2
            for b in range(C):
                matrix[a][b] += y[a] and y[b]
        normal += _status_normal(row[-1])
    want_counts = [
        "metric," + ",".join([*X8_CLASSES, "Normal"]),
        "total," + ",".join(map(str, totals + [normal])),
        "overlap," + ",".join(map(str, overlaps + [0])),
    ]
    want_matrix = ["class," + ",".join(X8_CLASSES)] + [
        cls + "," + ",".join(map(str, matrix[a])) for a, cls in enumerate(X8_CLASSES)
    ]
    return (_compare("counts.csv", _read(out / "counts.csv"), want_counts)
            + _compare("matrix.csv", _read(out / "matrix.csv"), want_matrix))


def _check_split(inputs: Inputs, out: Path) -> list[str]:
    patients = sorted({line.split("\t")[1] for line in _read(inputs.files["corpus"])})
    rows = [line.split("\t") for line in _read(out / "split.tsv")]
    if [r[0] for r in rows] != patients:
        return ["split.tsv does not list every patient once, sorted"]
    n = len(patients)
    sizes = Counter(r[1] for r in rows)
    want = {"train": math.floor(0.7 * n + 1e-9),
            "val": math.floor(0.8 * n + 1e-9) - math.floor(0.7 * n + 1e-9)}
    want["test"] = n - want["train"] - want["val"]
    if dict(sizes) != {k: v for k, v in want.items() if v}:
        return [f"split sizes {dict(sizes)}, want 70/10/20 = {want}"]
    return []


def check_evaluate(inputs: Inputs, out: Path) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = defaultdict(list)
    _guard(problems, "auc", _check_auc, inputs, out)
    _guard(problems, "eval-nlp", _check_eval_prf1, inputs, out)
    _guard(problems, "stats", _check_stats, inputs, out)
    _guard(problems, "split", _check_split, inputs, out)
    return problems


CHECKS = {"label": check_label, "localize": check_localize, "evaluate": check_evaluate}
