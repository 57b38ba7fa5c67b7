"""Scoring: P/R/F1 for labeling, ROC AUC, localization Acc/AFP.

AUC is the area under the ROC curve, and both come from one descending
sort of the scores. Localization matches detections to ground-truth boxes
greedily, one-to-one, by descending overlap; accuracy is
per-ground-truth-box recall and AFP normalizes unmatched detections by the
evaluation image count.
"""

from __future__ import annotations

from typing import Iterable, Optional

from cxrlabel.errors import (
    T_GRID_IOBB,
    T_GRID_IOU,
    DegenerateLabels,
    IdSetMismatch,
    MalformedRow,
)
from cxrlabel.lazy import _lazy_module, np, record

# Each runs on its first attribute read (see `cxrlabel.lazy`): only the
# label scores read label tables, so `eval-loc` never runs `labeling`, and
# only the localization scores read boxes, so `auc` and `eval-nlp` never
# run `localization`.
labeling = _lazy_module("cxrlabel.labeling")
localization = _lazy_module("cxrlabel.localization")


def __getattr__(name: str):
    # `metrics.OVERLAP_MEASURES` is the table of `localization`, which the
    # benchmark's tests read here and its tracer edits in place.
    if name == "OVERLAP_MEASURES":
        return localization.OVERLAP_MEASURES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


NORMAL_ROW = "Normal"
TOTAL_ROW = "Total"


@record
class ClassScore:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def __add__(self, other: "ClassScore") -> "ClassScore":
        return ClassScore(self.tp + other.tp, self.fp + other.fp,
                          self.fn + other.fn)


@record
class PRF1Result:
    scores: dict[str, ClassScore]  # per class, plus the Normal pseudo-class
    total: ClassScore  # micro-average: summed counts

    def rows(self) -> list[tuple[str, ClassScore]]:
        return list(self.scores.items()) + [(TOTAL_ROW, self.total)]


def prf1(
    predicted: labeling.LabelTable | Iterable[labeling.ReportLabels],
    gold: labeling.LabelTable | Iterable[labeling.ReportLabels],
    config: labeling.LabelConfig,
) -> PRF1Result:
    """Per-class precision/recall/F1 against gold labels.

    The report status contributes a Normal pseudo-class; the Total row
    micro-averages all rows by summing their counts.
    """
    predicted = labeling.label_table(predicted, config)
    gold = labeling.label_table(gold, config)
    rows = gold.rows_of(predicted.ids)
    if rows is None:
        missing = set(gold.ids) ^ set(predicted.ids)
        raise IdSetMismatch(f"report id sets differ on {sorted(missing)[:5]}")

    # One column per class, then the Normal pseudo-class; gold rows in
    # the order of the predicted ones.
    p = np.column_stack([predicted.y, predicted.has_status(labeling.Status.NORMAL)])
    g = np.column_stack([gold.y, gold.has_status(labeling.Status.NORMAL)])[rows]
    p, g = p.astype(bool), g.astype(bool)
    tp = (p & g).sum(axis=0).tolist()
    fp = (p & ~g).sum(axis=0).tolist()
    fn = (g & ~p).sum(axis=0).tolist()
    names = [*config.classes, NORMAL_ROW]
    scores = {name: ClassScore(*counts) for name, *counts in zip(names, tp, fp, fn)}
    return PRF1Result(scores, sum(scores.values(), ClassScore(0, 0, 0)))


def roc_counts(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (true positive, false positive) counts at each distinct
    score, highest score first, from one descending sort. The last entries
    are the positive and negative totals."""
    score_arr = np.asarray(scores, dtype=float).ravel()
    label_arr = np.asarray(labels).ravel()
    if score_arr.shape != label_arr.shape:
        raise MalformedRow("scores and labels differ in length")
    if not np.all(np.isfinite(score_arr)):
        raise MalformedRow("scores must be finite")
    if not np.all((label_arr == 0) | (label_arr == 1)):
        raise MalformedRow("labels must be 0/1")
    n_pos = int(np.sum(label_arr == 1))
    n_neg = len(label_arr) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels(f"need both labels, got {n_pos} pos / {n_neg} neg")
    order = np.argsort(-score_arr)
    ranked = score_arr[order]
    tp = np.cumsum(label_arr[order] == 1)
    fp = np.arange(1, len(ranked) + 1) - tp
    tie_ends = np.append(np.flatnonzero(ranked[1:] != ranked[:-1]), len(ranked) - 1)
    return tp[tie_ends], fp[tie_ends]


def roc_auc(scores, labels, counts=None) -> float:
    """Probability a random positive outscores a random negative,
    counting ties as one half: the trapezoid area under the ROC counts,
    summed exactly as twice the Mann-Whitney U. `counts` is
    `roc_counts(scores, labels)` when the caller has it already."""
    tp, fp = roc_counts(scores, labels) if counts is None else counts
    twice_u = int(np.sum(np.diff(fp, prepend=0) * (tp + np.append(0, tp[:-1]))))
    return twice_u / (2 * int(tp[-1]) * int(fp[-1]))


def roc_points(scores, labels, counts=None) -> list[tuple[float, float]]:
    """(FPR, TPR) points at every distinct score threshold, descending.
    `counts` is `roc_counts(scores, labels)` when the caller has it."""
    tp, fp = roc_counts(scores, labels) if counts is None else counts
    return [(0.0, 0.0)] + list(zip((fp / fp[-1]).tolist(), (tp / tp[-1]).tolist()))


@record
class LocEvalResult:
    mode: str
    threshold: float
    acc: dict[str, float]  # absent for classes with no ground truth
    afp: dict[str, float]
    matched: dict[str, int]
    total_gt: dict[str, int]
    unmatched_det: dict[str, int]
    n_images: int


def _greedy_match(overlap: list[list[float]], threshold: float) -> tuple[int, int]:
    """(matched gt count, unmatched det count) for one image/class, from
    overlap[d][g], the overlap of detection d with ground-truth box g."""
    if not overlap or not overlap[0]:
        return 0, len(overlap)
    det_order = sorted(
        range(len(overlap)), key=lambda d: (-max(overlap[d]), d)
    )
    free = set(range(len(overlap[0])))
    matched = 0
    unmatched = 0
    for d in det_order:
        best_gt = None
        best_val = threshold
        for g in sorted(free):
            if overlap[d][g] > best_val:
                best_val = overlap[d][g]
                best_gt = g
        if best_gt is None:
            unmatched += 1
        else:
            free.remove(best_gt)
            matched += 1
    return matched, unmatched


def _check_threshold(threshold: float):
    if not 0 < threshold < 1:
        raise MalformedRow(f"threshold {threshold} outside (0,1)")


def localization_eval(
    detections: Iterable[localization.BBox],
    gts: Iterable[localization.BBox],
    threshold: float,
    mode: str,
    n_images: Optional[int] = None,
) -> LocEvalResult:
    """Greedy one-to-one matching at overlap > threshold.

    Acc_class = matched GT / total GT; AFP_class = unmatched detections
    divided by the evaluation image count (the distinct image ids across
    both inputs unless given explicitly; an explicit count must be >= 1).
    """
    return localization_sweep(detections, gts, mode, (threshold,), n_images)[0]


def _group_pairs(gt_group: np.ndarray, det_group: np.ndarray,
                 n_gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gt row and detection row of every pair in one group: group by
    group, detection by detection within a group, and each detection with
    its group's gts, rows in input order. `n_gt` counts each group's gts."""
    gt_rows = np.argsort(gt_group, kind="stable")
    det_rows = np.argsort(det_group, kind="stable")
    per_det = n_gt[det_group[det_rows]]
    first_gt = np.repeat((np.cumsum(n_gt) - n_gt)[det_group[det_rows]], per_det)
    within = np.arange(per_det.sum()) - np.repeat(np.cumsum(per_det) - per_det,
                                                  per_det)
    return gt_rows[first_gt + within], np.repeat(det_rows, per_det)


def localization_sweep(
    detections: localization.BoxTable | Iterable[localization.BBox],
    gts: localization.BoxTable | Iterable[localization.BBox],
    mode: str,
    grid: Optional[Iterable[float]] = None,
    n_images: Optional[int] = None,
) -> list[LocEvalResult]:
    """`localization_eval` at each threshold of the grid (the mode's
    T_GRID_* by default).

    Every (gt, detection) pair of a (class, image) group is measured in
    one `pair_overlaps` pass. A group with at most one gt matches in
    closed form: its gt is matched when some detection overlaps it by more
    than the threshold, and its other detections are unmatched. Groups
    with more gts go through `_greedy_match` on their rows of the overlaps.
    """
    if grid is None:
        grid = T_GRID_IOBB if mode == "iobb" else T_GRID_IOU
    grid = list(grid)
    if not grid:
        return []
    if mode not in localization.OVERLAP_MEASURES:
        raise MalformedRow(f"unknown overlap mode {mode!r}")
    # Checked before any overlap is measured, as at every threshold.
    _check_threshold(grid[0])
    detections = localization.box_table(detections)
    gts = localization.box_table(gts)
    if n_images is None:
        n_images = len(set(detections.image_ids) | set(gts.image_ids))
    elif n_images < 1:
        raise MalformedRow(f"image count {n_images} below 1")
    classes = sorted(set(detections.labels) | set(gts.labels))

    # The (class, image) groups, numbered in first-seen order, gts first.
    groups: dict[tuple[str, str], int] = {}
    gt_group, det_group = (
        np.array([groups.setdefault(key, len(groups))
                  for key in zip(table.labels, table.image_ids)], dtype=np.intp)
        for table in (gts, detections)
    )
    column = {c: k for k, c in enumerate(classes)}
    group_class = np.array([column[c] for c, _ in groups], dtype=np.intp)
    n_gt = np.bincount(gt_group, minlength=len(groups))
    n_det = np.bincount(det_group, minlength=len(groups))

    gt_rows, det_rows = _group_pairs(gt_group, det_group, n_gt)
    overlap = localization.pair_overlaps(gts, gt_rows, detections, det_rows, mode)

    # The best overlap of each one-gt group, ignoring NaN (which matches at
    # no threshold); -inf for every other group.
    pair_group = det_group[det_rows]
    single = n_gt[pair_group] == 1
    best = np.full(len(groups), -np.inf)
    np.fmax.at(best, pair_group[single], overlap[single])
    closed = n_gt <= 1
    closed_dets = np.bincount(group_class[det_group[closed[det_group]]],
                              minlength=len(classes))
    # The class and overlap[d][g] of each group with two or more gts; the
    # pairs of a group are contiguous.
    pair_end = np.cumsum(n_gt * n_det)
    multi = [
        (classes[group_class[g]],
         overlap[pair_end[g] - n_gt[g] * n_det[g]:pair_end[g]]
         .reshape(n_det[g], n_gt[g]).tolist())
        for g in np.flatnonzero(~closed).tolist()
    ]
    total_gt = dict(zip(classes, np.bincount(group_class[gt_group],
                                             minlength=len(classes)).tolist()))

    results = []
    for threshold in grid:
        _check_threshold(threshold)
        hits = np.bincount(group_class[best > threshold], minlength=len(classes))
        matched = dict(zip(classes, hits.tolist()))
        unmatched_det = dict(zip(classes, (closed_dets - hits).tolist()))
        for cls, rows in multi:
            hit, miss = _greedy_match(rows, threshold)
            matched[cls] += hit
            unmatched_det[cls] += miss
        acc = {
            c: matched[c] / total_gt[c] for c in classes if total_gt[c] > 0
        }
        afp = {c: unmatched_det[c] / n_images for c in classes}
        results.append(LocEvalResult(
            mode, threshold, acc, afp, matched, dict(total_gt), unmatched_det,
            n_images,
        ))
    return results
