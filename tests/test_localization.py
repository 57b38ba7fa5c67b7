"""Heatmap thresholding, connected regions, box generation, overlap scores."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from cxrlabel.errors import CxrLabelError, MalformedRow, ZeroAreaDetection
from cxrlabel.localization import (
    DEFAULT_THRESHOLDS,
    BBox,
    Heatmap,
    boxes_from_heatmap,
    connected_regions,
    iobb,
    iou,
    load_boxes,
    load_heatmaps,
    normalize_heatmap,
    write_boxes,
)

from conftest import write_heatmaps

EIGHT = np.ones((3, 3), dtype=bool)


def scipy_regions(intgrid, t):
    """Independent 8-connected components via scipy.ndimage."""
    mask = np.asarray(intgrid) > t
    labeled, count = ndimage.label(mask, structure=EIGHT)
    return {
        frozenset(zip(*np.nonzero(labeled == k))) for k in range(1, count + 1)
    }


_NEIGHBORS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc]


def connected_regions_by_scan(intgrid, t):
    """Reference: visit every cell in row-major order and flood-fill each
    unseen mask cell, bounds-checking every neighbour; regions are then
    stably sorted by (min row, min col)."""
    grid = np.asarray(intgrid)
    mask = grid > t
    seen = np.zeros(grid.shape, dtype=bool)
    regions = []
    rows, cols = grid.shape
    for row in range(rows):
        for col in range(cols):
            if not mask[row, col] or seen[row, col]:
                continue
            cells = []
            stack = [(row, col)]
            seen[row, col] = True
            while stack:
                r, c = stack.pop()
                cells.append((r, c))
                for dr, dc in _NEIGHBORS:
                    nr, nc = r + dr, c + dc
                    if 0 <= nr < rows and 0 <= nc < cols:
                        if mask[nr, nc] and not seen[nr, nc]:
                            seen[nr, nc] = True
                            stack.append((nr, nc))
            regions.append(frozenset(cells))
    regions.sort(key=lambda cells: (min(r for r, _ in cells),
                                    min(c for _, c in cells)))
    return regions


@st.composite
def int_grids(draw):
    size = draw(st.integers(1, 16))
    grid = draw(arrays(np.int64, (size, size), elements=st.integers(0, 255)))
    if draw(st.booleans()):
        # Zero one colour of a checkerboard: the cells left above any
        # threshold touch only at their corners.
        grid[np.add.outer(np.arange(size), np.arange(size)) % 2 == 1] = 0
    return grid


# Tokens float() and loadtxt may disagree on, and whitespace str.split()
# splits on; "\r" ends the line when the file is read back.
ODD_TOKENS = ["1_0", "\u0661\u0662", "nan", "nan(1)", "-inf", "1e999", "#",
              "x", "+.5", "-0", "0x10", "1,5", "\x00", "infinity", '"1"']
SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
              "\u2003", "\r"]


@st.composite
def grid_rows(draw, size):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", " ", "\t", "\x0b"]))  # blank row
    count = size + draw(st.sampled_from([0] * 8 + [-1, 1]))  # short or long
    token = st.one_of(
        st.floats(0, 1).map(lambda v: f"{v:.4f}"),
        st.floats().map(repr),
        st.sampled_from(ODD_TOKENS),
    )
    tokens = draw(st.lists(token, min_size=count, max_size=count))
    separator = draw(st.sampled_from([" "] * 6 + SEPARATORS))
    edge = st.sampled_from(["", "", " ", "\t", "\x0b", "\xa0", " #1"])
    return draw(edge) + separator.join(tokens) + draw(edge)


@st.composite
def heatmap_texts(draw):
    size = draw(st.integers(1, 4))
    rows = [draw(grid_rows(size)) for _ in range(size)]
    # A second, clean block shows that rows are numbered across blocks.
    return "\n".join([f"i1\tMass\t{size}\t64", *rows, "i2\tMass\t1\t8", "5"])


def loaded_or_error(path):
    try:
        return [
            (h.image_id, h.label, h.image_dim, h.grid.shape, h.grid.tobytes())
            for h in load_heatmaps(path)
        ]
    except CxrLabelError as err:
        return str(err)


def pixel_cells(box: BBox):
    """Integer pixel cells covered by an integer-coordinate box."""
    x, y, w, h = int(box.x), int(box.y), int(box.w), int(box.h)
    return {(px, py) for px in range(x, x + w) for py in range(y, y + h)}


class TestNormalize:
    def test_linear_map_with_half_up_rounding(self):
        grid = np.array([[0.0, 0.5], [1.0, 0.25]])
        out = normalize_heatmap(grid)
        assert out.tolist() == [[0, 128], [255, 64]]

    def test_extremes_hit_0_and_255(self):
        rng = np.random.default_rng(0)
        grid = rng.normal(size=(6, 6))
        out = normalize_heatmap(grid)
        assert out.min() == 0
        assert out.max() == 255

    def test_constant_grid_goes_to_zero(self):
        assert normalize_heatmap(np.full((4, 4), 3.7)).tolist() == (
            np.zeros((4, 4), dtype=int).tolist()
        )

    def test_negative_values_shift_cleanly(self):
        out = normalize_heatmap(np.array([[-2.0, 0.0], [2.0, -2.0]]))
        assert out.tolist() == [[0, 128], [255, 0]]

    def test_accepts_heatmap_object(self):
        hm = Heatmap("i1", "Mass", np.array([[0.0, 1.0], [0.5, 0.25]]), 1024)
        assert normalize_heatmap(hm)[0, 1] == 255


class TestConnectedRegions:
    def test_diagonal_cells_connect(self):
        grid = np.array([[255, 0], [0, 255]])
        assert len(connected_regions(grid, 60)) == 1

    def test_separate_regions_split(self):
        grid = np.zeros((5, 5), dtype=int)
        grid[0, 0] = 255
        grid[4, 4] = 255
        regions = connected_regions(grid, 60)
        assert [sorted(r) for r in regions] == [[(0, 0)], [(4, 4)]]

    def test_threshold_is_strict(self):
        grid = np.array([[60, 61]])
        regions = connected_regions(grid, 60)
        assert regions == [frozenset({(0, 1)})]

    def test_ordering_by_top_left(self):
        grid = np.zeros((4, 4), dtype=int)
        grid[2, 0] = 255  # lower-left region
        grid[0, 3] = 255  # top-right region
        regions = connected_regions(grid, 60)
        assert [min(r) for r in regions] == [(0, 3), (2, 0)]

    def test_threshold_range_validated(self):
        with pytest.raises(MalformedRow):
            connected_regions(np.zeros((2, 2), dtype=int), -1)
        with pytest.raises(MalformedRow):
            connected_regions(np.zeros((2, 2), dtype=int), 256)

    def test_matches_scipy_on_random_grids(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            size = int(rng.integers(1, 13))
            grid = rng.integers(0, 256, size=(size, size))
            t = int(rng.choice([0, 30, 60, 128, 180, 254]))
            ours = set(connected_regions(grid, t))
            assert ours == scipy_regions(grid, t)

    @settings(max_examples=400, deadline=None)
    @given(grid=int_grids(), t=st.integers(0, 255))
    @example(  # two regions whose (min row, min col) are both (0, 0)
        grid=np.array([[9, 9, 9, 9, 9, 0, 9],
                       [0, 0, 0, 0, 0, 0, 9],
                       [9, 9, 9, 9, 9, 9, 9]]),
        t=0,
    )
    def test_equals_scan_reference(self, grid, t):
        assert connected_regions(grid, t) == connected_regions_by_scan(grid, t)

    def test_regions_partition_the_mask(self):
        rng = np.random.default_rng(43)
        grid = rng.integers(0, 256, size=(9, 9))
        regions = connected_regions(grid, 128)
        union = set().union(*regions) if regions else set()
        assert union == set(zip(*np.nonzero(grid > 128)))
        assert sum(len(r) for r in regions) == len(union)


class TestBoxesFromHeatmap:
    def grid_with_block(self, size, rows, cols, hot=1.0):
        grid = np.zeros((size, size))
        grid[np.ix_(rows, cols)] = hot
        # anchor one cold cell so normalization has a range
        return grid

    def test_block_box_scaling(self):
        grid = self.grid_with_block(32, range(4, 7), range(10, 13))
        hm = Heatmap("i1", "Mass", grid, 1024)
        boxes = boxes_from_heatmap(hm, thresholds=(180,))
        assert len(boxes) == 1
        box = boxes[0]
        assert (box.x, box.y, box.w, box.h) == (320.0, 128.0, 96.0, 96.0)
        assert box.threshold == 180
        assert box.image_id == "i1"
        assert box.label == "Mass"

    def test_constant_grid_yields_no_boxes(self):
        hm = Heatmap("i1", "Mass", np.full((8, 8), 0.9), 1024)
        assert boxes_from_heatmap(hm) == []

    def test_union_over_thresholds_not_deduplicated(self):
        grid = self.grid_with_block(8, range(2, 4), range(2, 4))
        hm = Heatmap("i1", "Mass", grid, 512)
        boxes = boxes_from_heatmap(hm, thresholds=DEFAULT_THRESHOLDS)
        # the hot block clears both 60 and 180, so the same geometry
        # appears once per threshold
        assert len(boxes) == 2
        assert {b.threshold for b in boxes} == {60, 180}
        assert len({(b.x, b.y, b.w, b.h) for b in boxes}) == 1

    def test_whole_grid_hot_gives_full_image_box(self):
        grid = np.ones((4, 4))
        grid[0, 0] = 0.0
        hm = Heatmap("i1", "Mass", grid, 1000)
        boxes = boxes_from_heatmap(hm, thresholds=(60,))
        assert len(boxes) == 1
        assert (boxes[0].x, boxes[0].y) == (0.0, 0.0)
        assert (boxes[0].w, boxes[0].h) == (1000.0, 1000.0)

    def test_peak_cell_is_inside_some_box(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            size = int(rng.integers(2, 12))
            grid = rng.normal(size=(size, size))
            hm = Heatmap("i1", "Mass", grid, 1024)
            r, c = np.unravel_index(np.argmax(grid), grid.shape)
            factor = 1024 / size
            cx, cy = (c + 0.5) * factor, (r + 0.5) * factor
            for t in DEFAULT_THRESHOLDS:
                boxes = boxes_from_heatmap(hm, thresholds=(t,))
                assert any(
                    b.x <= cx <= b.x + b.w and b.y <= cy <= b.y + b.h
                    for b in boxes
                )

    def test_higher_threshold_boxes_nest_inside_lower(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            size = int(rng.integers(2, 12))
            grid = rng.normal(size=(size, size))
            hm = Heatmap("i1", "Mass", grid, 512)
            low = boxes_from_heatmap(hm, thresholds=(60,))
            high = boxes_from_heatmap(hm, thresholds=(180,))
            for hb in high:
                assert any(
                    lb.x <= hb.x
                    and lb.y <= hb.y
                    and hb.x + hb.w <= lb.x + lb.w + 1e-9
                    and hb.y + hb.h <= lb.y + lb.h + 1e-9
                    for lb in low
                )

    def test_boxes_stay_inside_image(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            size = int(rng.integers(1, 10))
            hm = Heatmap("i1", "Mass", rng.normal(size=(size, size)), 777)
            for box in boxes_from_heatmap(hm):
                assert box.x >= 0 and box.y >= 0
                assert box.x + box.w <= 777 + 1e-9
                assert box.y + box.h <= 777 + 1e-9

    def test_empty_thresholds_rejected(self):
        hm = Heatmap("i1", "Mass", np.eye(3), 100)
        with pytest.raises(MalformedRow):
            boxes_from_heatmap(hm, thresholds=())


class TestOverlapMeasures:
    def test_identical_boxes(self):
        a = BBox("i", "c", 0, 0, 10, 10)
        assert iou(a, a) == 1.0
        assert iobb(a, a) == 1.0

    def test_half_overlap_iou_is_one_third(self):
        a = BBox("i", "c", 0, 0, 10, 10)
        b = BBox("i", "c", 5, 0, 10, 10)
        assert iou(a, b) == pytest.approx(1 / 3)

    def test_iobb_uses_detection_area(self):
        gt = BBox("i", "c", 0, 0, 10, 10)
        det = BBox("i", "c", 5, 0, 10, 10)
        assert iobb(gt, det) == pytest.approx(0.5)
        tiny = BBox("i", "c", 2, 2, 2, 2)
        assert iobb(gt, tiny) == 1.0

    def test_disjoint_boxes(self):
        a = BBox("i", "c", 0, 0, 5, 5)
        b = BBox("i", "c", 10, 10, 5, 5)
        assert iou(a, b) == 0.0
        assert iobb(a, b) == 0.0

    def test_touching_edges_do_not_overlap(self):
        a = BBox("i", "c", 0, 0, 5, 5)
        b = BBox("i", "c", 5, 0, 5, 5)
        assert iou(a, b) == 0.0

    def test_iou_symmetric(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = BBox("i", "c", *rng.uniform(0, 20, 2), *rng.uniform(1, 10, 2))
            b = BBox("i", "c", *rng.uniform(0, 20, 2), *rng.uniform(1, 10, 2))
            assert iou(a, b) == pytest.approx(iou(b, a), rel=1e-12)
            assert 0.0 <= iou(a, b) <= 1.0

    def test_matches_pixel_counting_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = BBox(
                "i", "c",
                int(rng.integers(0, 15)), int(rng.integers(0, 15)),
                int(rng.integers(1, 10)), int(rng.integers(1, 10)),
            )
            b = BBox(
                "i", "c",
                int(rng.integers(0, 15)), int(rng.integers(0, 15)),
                int(rng.integers(1, 10)), int(rng.integers(1, 10)),
            )
            cells_a, cells_b = pixel_cells(a), pixel_cells(b)
            inter = len(cells_a & cells_b)
            assert iou(a, b) == pytest.approx(
                inter / len(cells_a | cells_b), rel=1e-12
            )
            assert iobb(a, b) == pytest.approx(inter / len(cells_b), rel=1e-12)

    def test_zero_area_errors(self):
        zero = BBox("i", "c", 0, 0, 0, 0)
        real = BBox("i", "c", 0, 0, 5, 5)
        with pytest.raises(ZeroAreaDetection):
            iou(zero, zero)
        with pytest.raises(ZeroAreaDetection):
            iobb(real, zero)
        # a zero-area ground truth against a real detection is fine
        assert iobb(zero, real) == 0.0

    def test_negative_extent_rejected(self):
        with pytest.raises(MalformedRow):
            BBox("i", "c", 0, 0, -1, 5)


class TestFileFormats:
    def test_heatmap_round_trip(self, tmp_path):
        grids = [
            Heatmap("i1", "Mass", np.array([[0.0, 0.5], [1.0, 0.25]]), 1024),
            Heatmap("i2", "Nodule", np.arange(9.0).reshape(3, 3), 512),
        ]
        buf = io.StringIO()
        write_heatmaps(grids, buf)
        path = tmp_path / "heatmaps.tsv"
        path.write_text(buf.getvalue(), encoding="utf-8")
        loaded = load_heatmaps(path)
        assert len(loaded) == 2
        for orig, back in zip(grids, loaded):
            assert back.image_id == orig.image_id
            assert back.label == orig.label
            assert back.image_dim == orig.image_dim
            assert np.array_equal(back.grid, orig.grid)

    def test_heatmap_bad_row_count(self, tmp_path):
        path = tmp_path / "heatmaps.tsv"
        path.write_text("i1\tMass\t2\t1024\n0 0\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_heatmaps(path)

    def test_heatmap_bad_column_count(self, tmp_path):
        path = tmp_path / "heatmaps.tsv"
        path.write_text("i1\tMass\t2\t1024\n0 0\n0 0 0\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_heatmaps(path)

    def test_heatmap_reads_what_float_reads(self, tmp_path):
        path = tmp_path / "heatmaps.tsv"
        path.write_text("i1\tMass\t2\t64\n1_0 \u0661\u0662\n0 1\n", encoding="utf-8")
        (heatmap,) = load_heatmaps(path)
        assert heatmap.grid.tolist() == [[10.0, 12.0], [0.0, 1.0]]

    @settings(max_examples=400, deadline=None)
    @given(text=heatmap_texts())
    def test_heatmap_loader_equals_per_row_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "mutated_heatmaps.tsv"
        path.write_text(text, encoding="utf-8")
        fast = loaded_or_error(path)
        # With loadtxt failing, every block goes through the per-row parser.
        with mock.patch("numpy.loadtxt", side_effect=ValueError):
            by_rows = loaded_or_error(path)
        assert fast == by_rows

    def test_box_round_trip(self, tmp_path):
        boxes = [
            BBox("i1", "Mass", 10, 20, 30, 40, threshold=60),
            BBox("i1", "Nodule", 0, 0, 5, 5, threshold=180),
        ]
        buf = io.StringIO()
        write_boxes(boxes, buf, with_threshold=True)
        path = tmp_path / "boxes.tsv"
        path.write_text(buf.getvalue(), encoding="utf-8")
        assert load_boxes(path, with_threshold=True) == boxes

    def test_gt_boxes_have_six_fields(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("i1\tMass\t10\t20\t30\t40\n", encoding="utf-8")
        (box,) = load_boxes(path)
        assert box.threshold is None
        with pytest.raises(MalformedRow):
            load_boxes(path, with_threshold=True)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text(
            "# header\n\ni1\tMass\t1\t2\t3\t4\n", encoding="utf-8"
        )
        assert len(load_boxes(path)) == 1
