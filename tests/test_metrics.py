"""P/R/F1, ROC AUC, and localization Acc/AFP scoring."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import auc_by_pairs, optimal_match_count
from cxrlabel import metrics
from cxrlabel.errors import (
    CxrLabelError,
    DegenerateLabels,
    IdSetMismatch,
    MalformedRow,
    ZeroAreaDetection,
)
from cxrlabel.labeling import LabelConfig, LabelTable, ReportLabels, Status
from cxrlabel.localization import (
    OVERLAP_MEASURES,
    BBox,
    BoxTable,
    iobb,
    iou,
    pair_overlaps,
)
from cxrlabel.metrics import (
    NORMAL_ROW,
    T_GRID_IOBB,
    T_GRID_IOU,
    TOTAL_ROW,
    ClassScore,
    LocEvalResult,
    _greedy_match,
    localization_eval,
    localization_sweep,
    prf1,
    roc_auc,
    roc_counts,
    roc_points,
)

TWO = LabelConfig("two", ("A", "B"))


def labels(report_id, y, status):
    return ReportLabels(report_id, tuple(y), Status(status))


def random_labels(report_id, rng, n_classes):
    y = tuple(int(v) for v in rng.uniform(size=n_classes) < 0.3)
    if any(y):
        return ReportLabels(report_id, y, Status.TARGET_FINDINGS)
    return ReportLabels(report_id, y, rng.choice([Status.NORMAL,
                                                  Status.OTHER_FINDINGS_ONLY]))


def flags(record):
    """Per class whether it is set, then whether the status is NORMAL."""
    return [*(v == 1 for v in record.y), record.status is Status.NORMAL]


def roc_points_by_thresholds(scores, gold):
    """Slow reference: rescan every score at each distinct threshold."""
    scores = np.asarray(scores, dtype=float)
    gold = np.asarray(gold)
    n_pos = int(np.sum(gold == 1))
    n_neg = int(np.sum(gold == 0))
    points = [(0.0, 0.0)]
    for threshold in sorted(set(scores), reverse=True):
        hit = scores >= threshold
        tpr = float(np.sum(hit & (gold == 1))) / n_pos
        fpr = float(np.sum(hit & (gold == 0))) / n_neg
        points.append((fpr, tpr))
    return points


class TestClassScore:
    def test_rates(self):
        score = ClassScore(tp=3, fp=1, fn=2)
        assert score.precision == pytest.approx(0.75)
        assert score.recall == pytest.approx(0.6)
        assert score.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_zero_denominators(self):
        empty = ClassScore(0, 0, 0)
        assert (empty.precision, empty.recall, empty.f1) == (0.0, 0.0, 0.0)

    def test_addition(self):
        assert ClassScore(1, 2, 3) + ClassScore(4, 5, 6) == ClassScore(5, 7, 9)


class TestPrf1:
    PRED = [
        labels("r1", (1, 0), "TARGET_FINDINGS"),
        labels("r2", (1, 1), "TARGET_FINDINGS"),
        labels("r3", (0, 0), "NORMAL"),
        labels("r4", (0, 0), "NORMAL"),
        labels("r5", (0, 1), "TARGET_FINDINGS"),
    ]
    GOLD = [
        labels("r1", (1, 0), "TARGET_FINDINGS"),
        labels("r2", (0, 1), "TARGET_FINDINGS"),
        labels("r3", (0, 0), "NORMAL"),
        labels("r4", (0, 0), "OTHER_FINDINGS_ONLY"),
        labels("r5", (0, 0), "NORMAL"),
    ]

    def test_per_class_counts(self):
        result = prf1(self.PRED, self.GOLD, TWO)
        # A: pred {r1,r2} gold {r1} -> tp 1, fp 1, fn 0
        assert result.scores["A"] == ClassScore(1, 1, 0)
        # B: pred {r2,r5} gold {r2} -> tp 1, fp 1, fn 0
        assert result.scores["B"] == ClassScore(1, 1, 0)
        # Normal: pred {r3,r4} gold {r3,r5} -> tp 1, fp 1, fn 1
        assert result.scores[NORMAL_ROW] == ClassScore(1, 1, 1)

    def test_total_micro_sums_all_rows(self):
        result = prf1(self.PRED, self.GOLD, TWO)
        assert result.total == ClassScore(3, 3, 1)
        assert result.total.precision == pytest.approx(0.5)
        assert result.total.recall == pytest.approx(0.75)

    def test_rows_end_with_total(self):
        result = prf1(self.PRED, self.GOLD, TWO)
        assert result.rows()[-1][0] == TOTAL_ROW
        assert [name for name, _ in result.rows()][:2] == ["A", "B"]
        assert NORMAL_ROW in dict(result.rows())

    def test_order_insensitive(self):
        shuffled = list(reversed(self.PRED))
        assert prf1(shuffled, self.GOLD, TWO) == prf1(self.PRED, self.GOLD, TWO)

    def test_id_mismatch_rejected(self):
        with pytest.raises(IdSetMismatch):
            prf1(self.PRED[:4], self.GOLD, TWO)
        with pytest.raises(IdSetMismatch):
            prf1(
                self.PRED[:4] + [labels("r9", (0, 0), "NORMAL")], self.GOLD, TWO
            )

    def test_matches_per_record_counting(self):
        rng = np.random.default_rng(43)
        config = LabelConfig("four", tuple("ABCD"))
        for _ in range(60):
            n = int(rng.integers(1, 30))
            gold = [random_labels(f"r{i}", rng, 4) for i in range(n)]
            pred = [random_labels(f"r{i}", rng, 4) for i in rng.permutation(n)]
            gold_by_id = {record.report_id: record for record in gold}
            pairs = [(flags(p), flags(gold_by_id[p.report_id])) for p in pred]
            result = prf1(pred, gold, config)
            for k, name in enumerate([*config.classes, NORMAL_ROW]):
                assert result.scores[name] == ClassScore(
                    sum(p[k] and g[k] for p, g in pairs),
                    sum(p[k] and not g[k] for p, g in pairs),
                    sum(g[k] and not p[k] for p, g in pairs),
                )
            assert result.total == sum(result.scores.values(), ClassScore(0, 0, 0))
            tables = [LabelTable.from_records(r, config) for r in (pred, gold)]
            assert prf1(*tables, config) == result

    def test_perfect_agreement(self):
        result = prf1(self.GOLD, self.GOLD, TWO)
        for _, score in result.rows():
            assert score.fp == 0 and score.fn == 0


class TestRocAuc:
    def test_canonical_values(self):
        assert roc_auc([0.9, 0.8, 0.3], [1, 0, 1]) == pytest.approx(0.5)
        assert roc_auc([0.9, 0.7, 0.3, 0.1], [1, 1, 0, 0]) == 1.0
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_tied_scores_give_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(150):
            n = int(rng.integers(2, 50))
            gold = rng.integers(0, 2, size=n)
            if gold.all() or not gold.any():
                gold[0] = 1 - gold[0]
            # quantized scores force ties
            scores = rng.integers(0, 10, size=n) / 10.0
            assert roc_auc(scores, gold) == auc_by_pairs(scores, gold)

    def test_roc_points_match_threshold_scan_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            n = int(rng.integers(2, 60))
            gold = rng.integers(0, 2, size=n)
            if gold.all() or not gold.any():
                gold[0] = 1 - gold[0]
            scores = rng.integers(0, 8, size=n) / 8.0
            assert roc_points(scores, gold) == roc_points_by_thresholds(scores, gold)

    def test_precomputed_counts_give_the_same_results(self):
        rng = np.random.default_rng(19)
        scores = rng.integers(0, 6, size=40) / 6.0
        gold = rng.integers(0, 2, size=40)
        gold[0], gold[1] = 0, 1
        counts = roc_counts(scores, gold)
        assert roc_auc(scores, gold, counts) == roc_auc(scores, gold)
        assert roc_points(scores, gold, counts) == roc_points(scores, gold)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(14)
        scores = rng.uniform(size=30)
        gold = rng.integers(0, 2, size=30)
        gold[0], gold[1] = 0, 1
        base = roc_auc(scores, gold)
        assert roc_auc(2.0 * scores + 3.0, gold) == pytest.approx(base, abs=1e-12)
        assert roc_auc(np.exp(scores), gold) == pytest.approx(base, abs=1e-12)

    def test_degenerate_labels_rejected(self):
        with pytest.raises(DegenerateLabels):
            roc_auc([0.1, 0.9], [1, 1])
        with pytest.raises(DegenerateLabels):
            roc_auc([0.1, 0.9], [0, 0])

    @pytest.mark.parametrize("bad_score", [float("nan"), float("inf")])
    def test_shape_and_label_validation(self, bad_score):
        for scored in (roc_auc, roc_points):
            with pytest.raises(MalformedRow):
                scored([0.1, 0.2], [1])
            with pytest.raises(MalformedRow):
                scored([0.1, 0.2, 0.3], [1, 0, 2])
            with pytest.raises(MalformedRow):
                scored([bad_score, 0.2, 0.5], [1, 0, 1])

    def test_roc_points_anchor_and_monotone(self):
        rng = np.random.default_rng(15)
        scores = rng.uniform(size=25)
        gold = rng.integers(0, 2, size=25)
        gold[0], gold[1] = 0, 1
        points = roc_points(scores, gold)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        for (f0, t0), (f1, t1) in zip(points, points[1:]):
            assert f1 >= f0 and t1 >= t0

    def test_curve_area_equals_rank_auc(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            gold = rng.integers(0, 2, size=n)
            if gold.all() or not gold.any():
                gold[0] = 1 - gold[0]
            scores = rng.integers(0, 6, size=n) / 6.0
            points = roc_points(scores, gold)
            area = sum(
                (x1 - x0) * (y0 + y1) / 2.0
                for (x0, y0), (x1, y1) in zip(points, points[1:])
            )
            assert area == pytest.approx(roc_auc(scores, gold), abs=1e-12)


def box_lists(detection: bool):
    """Boxes on a small integer grid, so overlaps tie often, over three
    images and two classes; ground-truth boxes may have no area."""
    coord = st.integers(0, 12).map(float)
    extent = st.integers(1 if detection else 0, 8).map(float)
    box = st.builds(BBox, st.sampled_from(["i1", "i2", "i3"]),
                    st.sampled_from(["A", "B"]), coord, coord, extent, extent)
    return st.lists(box, max_size=10)


@st.composite
def grouped_boxes(draw):
    """(detections, gts) over three images and two classes, each list in
    a drawn order, with at most three gts per (class, image) group. Gts
    may have no area, and so may the detections of some draws."""
    coord = st.integers(0, 12).map(float)
    gt_extent = st.integers(0, 8).map(float)
    det_extent = st.integers(0 if draw(st.booleans()) else 1, 8).map(float)
    dets, gts = [], []
    for image in ("i1", "i2", "i3"):
        for cls in ("A", "B"):
            gts += [BBox(image, cls, draw(coord), draw(coord), draw(gt_extent),
                         draw(gt_extent)) for _ in range(draw(st.integers(0, 3)))]
            dets += [BBox(image, cls, draw(coord), draw(coord), draw(det_extent),
                          draw(det_extent), draw(st.sampled_from([60, 180])))
                     for _ in range(draw(st.integers(0, 4)))]
    return draw(st.permutations(dets)), draw(st.permutations(gts))


def sweep_by_pairs(detections, gts, mode, grid, n_images=None):
    """Reference sweep: every same-group (gt, detection) pair measured
    with the scalar measure, detection by detection, and every group
    matched by `_greedy_match` at every threshold."""
    grid = list(grid)
    if not grid:
        return []
    if mode not in OVERLAP_MEASURES:
        raise MalformedRow(f"unknown overlap mode {mode!r}")
    metrics._check_threshold(grid[0])
    if n_images is None:
        n_images = len({b.image_id for b in detections} | {b.image_id for b in gts})
    elif n_images < 1:
        raise MalformedRow(f"image count {n_images} below 1")
    classes = sorted({b.label for b in detections} | {b.label for b in gts})
    groups = {}
    for side, boxes in enumerate((gts, detections)):
        for box in boxes:
            groups.setdefault((box.label, box.image_id), ([], []))[side].append(box)
    total_gt = Counter({c: 0 for c in classes})
    scored = []
    for (cls, _), (image_gts, image_dets) in groups.items():
        total_gt[cls] += len(image_gts)
        scored.append((cls, [[OVERLAP_MEASURES[mode](gt, det) for gt in image_gts]
                             for det in image_dets]))
    results = []
    for threshold in grid:
        metrics._check_threshold(threshold)
        matched = {c: 0 for c in classes}
        unmatched = {c: 0 for c in classes}
        for cls, overlap in scored:
            hit, miss = _greedy_match(overlap, threshold)
            matched[cls] += hit
            unmatched[cls] += miss
        results.append(LocEvalResult(
            mode, threshold,
            {c: matched[c] / total_gt[c] for c in classes if total_gt[c]},
            {c: unmatched[c] / n_images for c in classes},
            matched, dict(total_gt), unmatched, n_images,
        ))
    return results


def sweep_or_error(sweep, *args):
    try:
        return sweep(*args)
    except CxrLabelError as err:
        return type(err), str(err)


def greedy_match(gts, dets, threshold, measure):
    """`_greedy_match` on the overlap of every (detection, gt) pair."""
    return _greedy_match([[measure(gt, det) for gt in gts] for det in dets], threshold)


class TestGreedyMatch:
    GT = BBox("i1", "Mass", 0, 0, 10, 10)

    def test_single_match(self):
        det = BBox("i1", "Mass", 5, 0, 10, 10)  # IoBB 0.5
        assert greedy_match([self.GT], [det], 0.25, iobb) == (1, 0)

    def test_threshold_is_strict(self):
        det = BBox("i1", "Mass", 5, 0, 10, 10)
        assert greedy_match([self.GT], [det], 0.5, iobb) == (0, 1)

    def test_one_to_one(self):
        dets = [
            BBox("i1", "Mass", 0, 0, 10, 10),
            BBox("i1", "Mass", 1, 1, 9, 9),
        ]
        assert greedy_match([self.GT], dets, 0.25, iobb) == (1, 1)

    def test_best_det_claims_first(self):
        # The weaker-overlap detection must not steal the only GT.
        strong = BBox("i1", "Mass", 0, 0, 10, 10)
        weak = BBox("i1", "Mass", 7, 0, 10, 10)
        matched, unmatched = greedy_match([self.GT], [weak, strong], 0.1, iou)
        assert (matched, unmatched) == (1, 1)

    def test_equal_overlap_resolves_by_index(self):
        g1 = BBox("i1", "Mass", 0, 0, 10, 10)
        g2 = BBox("i1", "Mass", 20, 0, 10, 10)
        # det overlaps both GTs identically; the lower GT index is taken
        det = BBox("i1", "Mass", 5, 0, 20, 10)
        overlap_left = iobb(g1, det)
        assert overlap_left == pytest.approx(iobb(g2, det))
        assert greedy_match([g1, g2], [det], 0.1, iobb) == (1, 0)

    def test_agrees_with_exhaustive_on_seeded_fixtures(self):
        rng = np.random.default_rng(1)
        for _ in range(120):
            gts = [
                BBox("i", "c", float(rng.integers(0, 40)), float(rng.integers(0, 40)),
                     float(rng.integers(5, 30)), float(rng.integers(5, 30)))
                for _ in range(rng.integers(0, 4))
            ]
            dets = [
                BBox("i", "c", float(rng.integers(0, 40)), float(rng.integers(0, 40)),
                     float(rng.integers(5, 30)), float(rng.integers(5, 30)))
                for _ in range(rng.integers(0, 4))
            ]
            for t in (0.1, 0.25, 0.5):
                for measure in (iobb, iou):
                    matched, _ = greedy_match(gts, dets, t, measure)
                    assert matched == optimal_match_count(gts, dets, t, measure)


class TestLocalizationEval:
    def fixture(self):
        gts = [
            BBox("i1", "Mass", 0, 0, 10, 10),
            BBox("i2", "Mass", 0, 0, 10, 10),
        ]
        dets = [BBox("i1", "Mass", 5, 0, 10, 10)]  # IoBB 0.5 on i1
        return dets, gts

    def test_acc_and_afp_hand_values(self):
        dets, gts = self.fixture()
        result = localization_eval(dets, gts, 0.25, "iobb")
        assert result.n_images == 2
        assert result.acc["Mass"] == pytest.approx(0.5)
        assert result.afp["Mass"] == 0.0
        assert result.matched["Mass"] == 1
        assert result.total_gt["Mass"] == 2

    def test_unmatched_detection_counts_toward_afp(self):
        dets, gts = self.fixture()
        dets.append(BBox("i2", "Mass", 50, 50, 5, 5))
        result = localization_eval(dets, gts, 0.25, "iobb")
        assert result.afp["Mass"] == pytest.approx(0.5)  # 1 unmatched / 2 images

    def test_explicit_image_count(self):
        dets, gts = self.fixture()
        dets.append(BBox("i2", "Mass", 50, 50, 5, 5))
        result = localization_eval(dets, gts, 0.25, "iobb", n_images=4)
        assert result.afp["Mass"] == pytest.approx(0.25)

    def test_class_without_gt_has_no_acc(self):
        dets, gts = self.fixture()
        dets.append(BBox("i1", "Nodule", 0, 0, 5, 5))
        result = localization_eval(dets, gts, 0.25, "iobb")
        assert "Nodule" not in result.acc
        assert result.afp["Nodule"] == pytest.approx(0.5)

    def test_classes_do_not_cross_match(self):
        gts = [BBox("i1", "Mass", 0, 0, 10, 10)]
        dets = [BBox("i1", "Nodule", 0, 0, 10, 10)]
        result = localization_eval(dets, gts, 0.25, "iobb")
        assert result.matched["Mass"] == 0
        assert result.unmatched_det["Nodule"] == 1

    def test_images_do_not_cross_match(self):
        gts = [BBox("i1", "Mass", 0, 0, 10, 10)]
        dets = [BBox("i2", "Mass", 0, 0, 10, 10)]
        result = localization_eval(dets, gts, 0.25, "iobb")
        assert result.matched["Mass"] == 0
        assert result.unmatched_det["Mass"] == 1

    def test_mode_and_threshold_validated(self):
        dets, gts = self.fixture()
        with pytest.raises(MalformedRow):
            localization_eval(dets, gts, 0.25, "dice")
        with pytest.raises(MalformedRow):
            localization_eval(dets, gts, 0.0, "iobb")
        with pytest.raises(MalformedRow):
            localization_eval(dets, gts, 1.0, "iobb")

    def test_sweep_grids(self):
        dets, gts = self.fixture()
        iobb_sweep = localization_sweep(dets, gts, "iobb")
        assert [r.threshold for r in iobb_sweep] == list(T_GRID_IOBB)
        iou_sweep = localization_sweep(dets, gts, "iou")
        assert [r.threshold for r in iou_sweep] == list(T_GRID_IOU)

    def test_acc_non_increasing_afp_non_decreasing(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            gts = [
                BBox(f"i{rng.integers(0, 3)}", "Mass",
                     float(rng.integers(0, 30)), float(rng.integers(0, 30)),
                     float(rng.integers(5, 25)), float(rng.integers(5, 25)))
                for _ in range(6)
            ]
            dets = [
                BBox(f"i{rng.integers(0, 3)}", "Mass",
                     float(rng.integers(0, 30)), float(rng.integers(0, 30)),
                     float(rng.integers(5, 25)), float(rng.integers(5, 25)))
                for _ in range(6)
            ]
            sweep = localization_sweep(dets, gts, "iobb")
            accs = [r.acc["Mass"] for r in sweep]
            afps = [r.afp["Mass"] for r in sweep]
            assert all(a >= b for a, b in zip(accs, accs[1:]))
            assert all(a <= b for a, b in zip(afps, afps[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        dets=box_lists(detection=True),
        gts=box_lists(detection=False),
        mode=st.sampled_from(["iobb", "iou"]),
        grid=st.lists(st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9])
                      | st.floats(0.01, 0.99), max_size=6),
        n_images=st.none() | st.integers(1, 5),
    )
    def test_sweep_equals_one_eval_per_threshold(self, dets, gts, mode, grid, n_images):
        assert localization_sweep(dets, gts, mode, grid, n_images) == [
            localization_eval(dets, gts, t, mode, n_images) for t in grid
        ]

    def test_sweep_measures_each_pair_once(self):
        # One pair_overlaps pass per sweep, over exactly the same-group
        # pairs, each value bit-equal to the scalar measure.
        rng = np.random.default_rng(8)

        def boxes(count):
            return [
                BBox(f"i{rng.integers(0, 3)}", str(rng.choice(["A", "B"])),
                     float(rng.integers(0, 30)), float(rng.integers(0, 30)),
                     float(rng.integers(5, 25)), float(rng.integers(5, 25)))
                for _ in range(count)
            ]

        gts, dets = boxes(12), boxes(30)
        pairs = [(g, d) for g, gt in enumerate(gts) for d, det in enumerate(dets)
                 if (gt.label, gt.image_id) == (det.label, det.image_id)]
        assert pairs
        for mode, grid in (("iobb", T_GRID_IOBB), ("iou", T_GRID_IOU)):
            calls = []

            def recorded(gt_table, gt_rows, det_table, det_rows, mode):
                values = pair_overlaps(gt_table, gt_rows, det_table, det_rows, mode)
                calls.append((gt_rows.tolist(), det_rows.tolist(), values))
                return values

            with mock.patch.object(metrics.localization, "pair_overlaps", recorded):
                sweep = localization_sweep(dets, gts, mode)
            assert len(sweep) == len(grid)
            ((gt_rows, det_rows, values),) = calls
            assert sorted(zip(gt_rows, det_rows)) == pairs
            expected = [OVERLAP_MEASURES[mode](gts[g], dets[d])
                        for g, d in zip(gt_rows, det_rows)]
            assert values.view(np.uint64).tolist() == (
                np.array(expected).view(np.uint64).tolist()
            )

    @settings(max_examples=400, deadline=None)
    @given(
        boxes=grouped_boxes(),
        mode=st.sampled_from(["iobb", "iou"]),
        grid=st.lists(st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9])
                      | st.floats(0.01, 0.99), min_size=1, max_size=6),
        n_images=st.none() | st.integers(1, 5),
    )
    def test_sweep_equals_scalar_reference(self, boxes, mode, grid, n_images):
        dets, gts = boxes
        args = (mode, grid, n_images)
        got = sweep_or_error(localization_sweep, dets, gts, *args)
        assert got == sweep_or_error(sweep_by_pairs, dets, gts, *args)
        tables = (BoxTable.from_boxes(dets), BoxTable.from_boxes(gts))
        assert sweep_or_error(localization_sweep, *tables, *args) == got
        for result in got if isinstance(got, list) else ():
            for counts in (result.matched, result.total_gt, result.unmatched_det):
                assert {type(v) for v in counts.values()} <= {int}
            for rates in (result.acc, result.afp):
                assert {type(v) for v in rates.values()} <= {float}

    def test_sweep_errors(self):
        dets, gts = self.fixture()
        zero = [BBox("i1", "Mass", 0, 0, 0, 5)]
        # An empty grid evaluates nothing, so it checks nothing.
        assert localization_sweep(zero, gts, "dice", [], n_images=0) == []
        with pytest.raises(MalformedRow, match="unknown overlap mode"):
            localization_sweep(dets, gts, "dice", [0.5])
        with pytest.raises(MalformedRow, match="threshold 1.0 outside"):
            localization_sweep(zero, gts, "iobb", [1.0, 0.5])
        with pytest.raises(MalformedRow, match="image count 0 below 1"):
            localization_sweep(zero, gts, "iobb", [0.5], n_images=0)
        # The first threshold is good, so the overlaps are measured.
        with pytest.raises(ZeroAreaDetection):
            localization_sweep(zero, gts, "iobb", [0.5, 1.0])
        with pytest.raises(MalformedRow, match="threshold 1.0 outside"):
            localization_sweep(dets, gts, "iobb", [0.5, 1.0])
