"""Turn per-class heatmaps into bounding boxes; box overlap measures.

Heatmap scores are normalized to [0,255], thresholded, grouped into
8-connected regions, and wrapped in tight boxes scaled to image pixels.
IoU and IoBB score detections against ground truth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional

from cxrlabel.errors import (
    CxrLabelError,
    MalformedRow,
    ZeroAreaDetection,
    read_input,
    read_rows,
)
from cxrlabel.lazy import np

DEFAULT_THRESHOLDS = (60, 180)


@dataclass(frozen=True, eq=False)
class Heatmap:
    image_id: str
    label: str
    grid: np.ndarray
    image_dim: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1] or grid.shape[0] < 1:
            raise MalformedRow(f"heatmap grid must be square, got {grid.shape}")
        if not np.isfinite(grid).all():
            raise CxrLabelError("heatmap grid contains non-finite values")
        if not self.image_dim > 0:
            raise MalformedRow(f"image_dim must be > 0, got {self.image_dim}")

    @property
    def size(self) -> int:
        return self.grid.shape[0]


@dataclass(frozen=True)
class BBox:
    image_id: str
    label: str
    x: float
    y: float
    w: float
    h: float
    threshold: Optional[int] = None

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise MalformedRow(f"negative extent {self.w}x{self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True, eq=False)
class BoxTable:
    """Box rows as arrays: the image id and class of each row, an (N, 4)
    float64 array of x, y, w, h, and an (N,) int array of thresholds
    (None for ground-truth boxes). Iterating yields each row as a BBox:
    the BBox itself for a table built from BBoxes."""

    image_ids: list[str]
    labels: list[str]
    xywh: np.ndarray
    thresholds: Optional[np.ndarray] = None
    boxes: Optional[list[BBox]] = None

    @classmethod
    def from_boxes(cls, boxes: Iterable[BBox]) -> "BoxTable":
        """The table of `boxes`; it has thresholds when every box has one."""
        boxes = list(boxes)
        thresholds = [box.threshold for box in boxes]
        xywh = np.array([(box.x, box.y, box.w, box.h) for box in boxes], dtype=float)
        return cls([box.image_id for box in boxes], [box.label for box in boxes],
                   xywh.reshape(-1, 4),
                   None if None in thresholds else _int_array(thresholds), boxes)

    def __len__(self) -> int:
        return len(self.image_ids)

    def __getitem__(self, k: int) -> BBox:
        if self.boxes is not None:
            return self.boxes[k]
        threshold = None if self.thresholds is None else self.thresholds.item(k)
        return BBox(self.image_ids[k], self.labels[k], *self.xywh[k].tolist(),
                    threshold)

    def __iter__(self):
        if self.boxes is not None:
            return iter(self.boxes)
        thresholds = ([None] * len(self) if self.thresholds is None
                      else self.thresholds.tolist())
        return (BBox(image_id, label, *geometry, threshold)
                for image_id, label, geometry, threshold in zip(
                    self.image_ids, self.labels, self.xywh.tolist(), thresholds))


def box_table(boxes) -> BoxTable:
    """`boxes` if it is a BoxTable, else the table of its BBoxes."""
    if isinstance(boxes, BoxTable):
        return boxes
    return BoxTable.from_boxes(boxes)


def _int_array(values: list[int]) -> np.ndarray:
    """`values` as int64, or as Python ints when one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def normalize_heatmap(heatmap) -> np.ndarray:
    """Map scores linearly onto integers 0..255, rounding half-up.

    Takes a Heatmap, a grid, or a stack of grids (..., S, S); each grid
    of a stack is normalized on its own. A constant grid normalizes to all
    zeros: it carries no localization evidence.
    """
    grid = heatmap.grid if isinstance(heatmap, Heatmap) else np.asarray(
        heatmap, dtype=float
    )
    lo, span, scale = _range_scale(grid)
    wide, narrow = np.isinf(span), np.isinf(scale)
    if (wide | narrow).any():
        # A range past the largest double, or one so narrow that 255 over it
        # is not finite: scale those grids alone by a power of two first,
        # halving a wide one and bringing a narrow one's largest cell
        # magnitude into [0.5, 1). Both are exact, but for the subnormal
        # cells of a wide grid, which lose at most 2**-1075 of a range
        # above 2**1023.
        top = np.abs(grid).max(axis=(-2, -1), keepdims=True)
        exponent = np.where(wide, -1, np.where(narrow, -np.frexp(top)[1], 0))
        with np.errstate(under="ignore"):
            grid = np.ldexp(grid, exponent)
        lo, span, scale = _range_scale(grid)
    return np.floor((grid - lo) * scale + 0.5).astype(int)


def _range_scale(grid: np.ndarray):
    """The least cell, the range and 255 over the range of each grid; the
    range is inf when it overflows, and so is the scale when 255 over it
    does."""
    lo = grid.min(axis=(-2, -1), keepdims=True)
    with np.errstate(over="ignore"):
        span = grid.max(axis=(-2, -1), keepdims=True) - lo
        # A constant grid has grid - lo == 0, so any finite scale maps it to 0.
        scale = 255.0 / np.where(span == 0, 1.0, span)
    return lo, span, scale


def _check_threshold(t):
    if not 0 <= t <= 255:
        raise MalformedRow(f"threshold {t} outside 0..255")


def _hook(root: np.ndarray, a: np.ndarray, b: np.ndarray):
    """One round of labelling, in place on `root`, where every node points
    at the root of its tree on entry and again on return.

    Drops the links a[i]-b[i] inside one tree, hooks every root linked to
    a smaller root onto the smallest of them, then jumps pointers until
    each node points at its root. Roots only ever point at smaller nodes,
    so the root of a tree is its smallest node. As in Shiloach-Vishkin,
    every tree with a link out merges within two rounds, so the rounds
    grow with the log of a component's size, not with its diameter.
    Returns the links that joined two trees.
    """
    ra, rb = root[a], root[b]
    cross = ra != rb
    a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
    np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            return a, b
        root[:] = jumped


def _label(flat: np.ndarray, width: int):
    """Label the 8-connected regions of a flattened bool stack of rows
    `width` long whose first and last rows and columns are all False.

    Returns the index in `flat` of every mask cell, ascending, and for
    each cell the position in that array of its region's first cell.
    """
    cells = np.flatnonzero(flat)
    left, right = flat[cells - 1], flat[cells + 1]
    # Each run of cells along a row starts as one tree, rooted at its
    # first cell.
    root = np.where(left, 0, np.arange(len(cells)))
    np.maximum.accumulate(root, out=root)
    # Link the runs of adjacent rows through the fewest cells: a cell to
    # the one below it, unless its left neighbour's link joins the same
    # two runs, and diagonally only where neither the cell below nor the
    # one beside it joins them. The border keeps every link in its slab.
    down = flat[cells + width]
    down_left = flat[cells + width - 1]
    down_right = flat[cells + width + 1]
    heads, tails = [], []
    for step, linked in ((width, down & ~(left & down_left)),
                         (width - 1, down_left & ~left & ~down),
                         (width + 1, down_right & ~right & ~down)):
        linked = np.flatnonzero(linked)
        heads.append(linked)
        tails.append(np.searchsorted(cells, cells[linked] + step))
    a, b = np.concatenate(heads), np.concatenate(tails)
    while len(a):
        a, b = _hook(root, a, b)
    return cells, root


def _regions(padded: np.ndarray):
    """The 8-connected regions of each (H+2, W+2) slab of a bool stack
    whose border cells are all False, labelled over the mask cells only.

    Returns the slab, row and column of every mask cell (row-major within
    each slab, rows and columns counted inside the border), the region of
    each cell, and the slab, min row, min col, max row and max col of each
    region. Regions are numbered by slab, then (min row, min col), then
    their first cell in row-major order.
    """
    _, height, width = padded.shape
    cells, root = _label(padded.ravel(), width)
    firsts = np.flatnonzero(root == np.arange(len(root)))
    region = np.searchsorted(firsts, root)
    slab, row = np.divmod(cells, height * width)
    row, col = np.divmod(row, width)
    row -= 1
    col -= 1
    count = len(firsts)
    c0 = np.full(count, width)
    r1 = np.full(count, -1)
    c1 = np.full(count, -1)
    np.minimum.at(c0, region, col)
    np.maximum.at(r1, region, row)
    np.maximum.at(c1, region, col)
    s, r0 = slab[firsts], row[firsts]
    order = np.lexsort((firsts, c0, r0, s))
    rank = np.empty(count, dtype=np.intp)
    rank[order] = np.arange(count)
    return (slab, row, col), rank[region], (s[order], r0[order], c0[order],
                                            r1[order], c1[order])


def connected_regions(intgrid, t: int) -> list[frozenset[tuple[int, int]]]:
    """8-connected components of cells with value > t, ordered by their
    top-left extreme (min row, then min col), then by their first cell in
    row-major order."""
    _check_threshold(t)
    grid = np.asarray(intgrid)
    padded = np.zeros((1, grid.shape[0] + 2, grid.shape[1] + 2), dtype=bool)
    padded[0, 1:-1, 1:-1] = grid > t
    (_, rows, cols), region, extents = _regions(padded)
    regions: list[list[tuple[int, int]]] = [[] for _ in extents[0]]
    for r, c, k in zip(rows.tolist(), cols.tolist(), region.tolist()):
        regions[k].append((r, c))
    return [frozenset(cells) for cells in regions]


def boxes_from_heatmap(
    heatmap: Heatmap, thresholds: Iterable[int] = DEFAULT_THRESHOLDS
) -> list[BBox]:
    """Tight boxes around each connected region, per threshold.

    Cell (i, j) covers the pixel rectangle [j*f, (j+1)*f) x [i*f, (i+1)*f)
    with f = image_dim / S. The union over thresholds is returned as-is:
    nested or duplicate boxes are not merged.
    """
    return boxes_from_heatmaps([heatmap], thresholds)


# At most this many cells are normalized, or bytes of grid rows decoded,
# in one numpy pass, which bounds the working memory however many maps
# there are.
_NORMALIZE_CELLS = 1 << 16


def boxes_from_heatmaps(
    heatmaps: Iterable[Heatmap], thresholds: Iterable[int] = DEFAULT_THRESHOLDS
) -> list[BBox]:
    """`boxes_from_heatmap` of each map, concatenated in map order.

    The maps of one size are thresholded at every threshold into one bool
    stack and labelled together, over the mask cells only.
    """
    heatmaps = list(heatmaps)
    thresholds = sorted(set(thresholds))
    if not thresholds:
        raise MalformedRow("thresholds must be nonempty")
    for t in thresholds:
        _check_threshold(t)
    levels = np.array(thresholds)[:, None, None]
    by_size: dict[int, list[int]] = {}
    for k, heatmap in enumerate(heatmaps):
        by_size.setdefault(heatmap.size, []).append(k)
    per_map: list[list[BBox]] = [[] for _ in heatmaps]
    for size, members in by_size.items():
        padded = np.zeros((len(members), len(thresholds), size + 2, size + 2),
                          dtype=bool)
        step = max(1, _NORMALIZE_CELLS // (size * size))
        for start in range(0, len(members), step):
            part = members[start:start + step]
            intgrids = normalize_heatmap(np.stack([heatmaps[k].grid for k in part]))
            np.greater(intgrids[:, None], levels,
                       out=padded[start:start + step, :, 1:-1, 1:-1])
        _, _, (slab, r0, c0, r1, c1) = _regions(
            padded.reshape(-1, size + 2, size + 2)
        )
        member, level = np.divmod(slab, len(thresholds))
        factor = np.array([heatmaps[k].image_dim / size for k in members])[member]
        dim = np.array([float(heatmaps[k].image_dim) for k in members])[member]
        x = c0 * factor
        y = r0 * factor
        w = (c1 - c0 + 1) * factor
        h = (r1 - r0 + 1) * factor
        # Clip to image bounds; the grid arithmetic already lands inside,
        # this guards float fuzz only.
        x = np.maximum(0.0, x)
        y = np.maximum(0.0, y)
        w = np.minimum(w, dim - x)
        h = np.minimum(h, dim - y)
        for m, t, *geometry in zip(member.tolist(), level.tolist(), x.tolist(),
                                   y.tolist(), w.tolist(), h.tolist()):
            k = members[m]
            per_map[k].append(BBox(heatmaps[k].image_id, heatmaps[k].label,
                                   *geometry, threshold=thresholds[t]))
    return [box for boxes in per_map for box in boxes]


def _intersection(a: BBox, b: BBox) -> float:
    width = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    height = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if width <= 0 or height <= 0:
        return 0.0
    return width * height


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 for disjoint boxes."""
    inter = _intersection(a, b)
    union = a.area + b.area - inter
    if union <= 0:
        raise ZeroAreaDetection("both boxes have zero area")
    return inter / union


def iobb(gt: BBox, det: BBox) -> float:
    """Intersection over the detected box's area."""
    if det.area <= 0:
        raise ZeroAreaDetection(f"detection {det} has zero area")
    return _intersection(gt, det) / det.area


OVERLAP_MEASURES = {"iou": iou, "iobb": iobb}


def pair_overlaps(gts: BoxTable, gt_rows: np.ndarray, dets: BoxTable,
                  det_rows: np.ndarray, mode: str) -> np.ndarray:
    """`OVERLAP_MEASURES[mode](gts[g], dets[d])` of each pair (g, d) of
    `zip(gt_rows, det_rows)`, in one numpy pass and equal bit for bit:
    min and max pick their operand as the builtins do (so NaN and signed
    zeros come out the same), and every other operation runs in the same
    order. Raises ZeroAreaDetection for the first pair the scalar measure
    raises for, with its text."""
    gt, det = gts.xywh[gt_rows], dets.xywh[det_rows]
    gx, gy, gw, gh = gt.T
    dx, dy, dw, dh = det.T
    with np.errstate(all="ignore"):
        gx1, dx1 = gx + gw, dx + dw
        gy1, dy1 = gy + gh, dy + dh
        width = np.where(dx1 < gx1, dx1, gx1) - np.where(dx > gx, dx, gx)
        height = np.where(dy1 < gy1, dy1, gy1) - np.where(dy > gy, dy, gy)
        inter = np.where((width <= 0) | (height <= 0), 0.0, width * height)
        det_area = dw * dh
        if mode == "iobb":
            bad = np.flatnonzero(det_area <= 0)
            if len(bad):
                raise ZeroAreaDetection(
                    f"detection {dets[det_rows[bad[0]]]} has zero area"
                )
            return inter / det_area
        union = gw * gh + det_area - inter
        if (union <= 0).any():
            raise ZeroAreaDetection("both boxes have zero area")
        return inter / union


# --- file formats ---

def load_heatmaps(path) -> list[Heatmap]:
    """Read blocks of "image_id<TAB>class<TAB>S<TAB>image_dim" headers,
    each followed by S rows of S space-separated scores. A file names
    each (image_id, class) at most once.

    The grid rows of all maps of one size are decoded from the bytes in
    one pass when they are fixed-width (see `_fixed_width_grids`), and
    parsed with one `loadtxt` otherwise. A size whose rows do not all
    parse to finite values is parsed again block by block with float(),
    so the error reported is the first in the file.
    """
    lines = _Lines(read_input(path))
    headers, header_error = _read_headers(lines)
    by_size: dict[int, list[int]] = {}
    for _, _, size, _, i in headers:
        by_size.setdefault(size, []).append(i)
    grids: dict[int, np.ndarray] = {}
    for size, starts in by_size.items():
        values = _fixed_width_grids(lines, np.array(starts), size)
        if values is None:
            rows = [row for i in starts for row in lines[i + 1:i + 1 + size]]
            values = _loadtxt(rows)
            # min and max are finite only when every score is, and need no
            # array of flags as large as the grids.
            if not (values is not None and values.shape == (len(rows), size)
                    and math.isfinite(values.min())
                    and math.isfinite(values.max())):
                continue
            values = values.reshape(len(starts), size, size)
        for k, i in enumerate(starts):
            grids[i] = values[k]
    heatmaps: list[Heatmap] = []
    for image_id, label, size, image_dim, i in headers:
        grid = grids.get(i)
        if grid is None:
            grid = _parse_grid_rows(lines[i + 1:i + 1 + size], size, i + 2)
        heatmaps.append(Heatmap(image_id, label, grid, image_dim))
    if header_error is not None:
        raise header_error
    return heatmaps


class _Lines:
    r"""The lines of a file's bytes, read as text mode reads them: `\r\n`
    and a lone `\r` end a line as `\n` does. Every newline is found once;
    a line is decoded only when it is indexed, and a slice is a list."""

    def __init__(self, data: bytes):
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if data and not data.endswith(b"\n"):
            data += b"\n"  # the last line reads the same without it
        self.data = data
        self.codes = np.frombuffer(data, dtype=np.uint8)
        # The index of each line's newline.
        self.ends = np.flatnonzero(self.codes == ord("\n"))

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        start = int(self.ends[i - 1]) + 1 if i else 0
        return self.data[start:int(self.ends[i])].decode("utf-8")


def _fixed_width_grids(lines: _Lines, starts: np.ndarray,
                       size: int) -> Optional[np.ndarray]:
    """The (n, S, S) grids of the maps whose headers are lines `starts`,
    decoded from the bytes, or None when some grid row is not S tokens of
    one width w, each of digits (at most 15) around a "." at one inner
    column, joined by single spaces and ended by a newline; this is what
    "%.4f" writes for scores in [0, 10).

    A token's digits form an integer below 2**53, built exactly in float64
    column by column; one division by the exact power of ten then rounds
    correctly (Clinger's fast path, PLDI 1990), so each value equals
    float(token) bit for bit. The rows are gathered `_NORMALIZE_CELLS`
    bytes at a time, which bounds the working memory.
    """
    codes, ends = lines.codes, lines.ends
    first = int(ends[starts[0]]) + 1
    length = int(ends[starts[0] + 1]) + 1 - first
    width = length // size - 1
    dot = lines.data.find(b".", first, first + width) - first
    if length % size or not 3 <= width <= 16 or not 0 < dot < width - 1:
        return None
    if not np.all(ends[starts + size] - ends[starts] == size * length):
        return None
    # Every grid row is `length` bytes: S tokens of `width` bytes, each
    # followed by a space, or by the newline after the last. Less its
    # expected byte, a digit column's byte is its digit (a byte below "0"
    # wraps past 9) and any other byte is 0.
    expected = np.tile(np.append(np.full(width, ord("0"), dtype=np.uint8),
                                 np.uint8(ord(" "))), size)
    expected[dot::width + 1] = ord(".")
    expected[-1] = ord("\n")
    most = np.where(expected == ord("0"), 9, 0).astype(np.uint8)
    columns = [c for c in range(width) if c != dot]
    scale = float(10 ** (width - 1 - dot))
    rows = np.lib.stride_tricks.sliding_window_view(codes, length)
    offsets = np.arange(size) * length
    grids = np.empty((len(starts), size, size))
    step = max(1, _NORMALIZE_CELLS // (size * length))
    for at in range(0, len(starts), step):
        firsts = ends[starts[at:at + step]] + 1
        block = rows[(firsts[:, None] + offsets).ravel()]
        np.subtract(block, expected, out=block)
        if not np.all(block.max(axis=0) <= most):
            return None
        digits = block.reshape(-1, size, width + 1)
        out = grids[at:at + step].reshape(digits.shape[:2])
        out[...] = digits[..., columns[0]]
        for column in columns[1:]:
            out *= 10.0
            out += digits[..., column]
        out /= scale
    return grids


def _read_headers(lines: _Lines):
    """The (image_id, class, S, image_dim, line index) of each header in
    file order, up to the first bad one, and that header's error (None
    when every header is good). Skips S grid rows after each header."""
    headers = []
    seen: set[tuple[str, str]] = set()
    i = 0
    try:
        while i < len(lines):
            line = lines[i]
            if not line.strip() or line.startswith("#"):
                i += 1
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise MalformedRow("heatmap header needs 4 fields", i + 1)
            image_id, label, size_s, dim_s = fields
            try:
                size = int(size_s)
                image_dim = float(dim_s)
            except ValueError:
                raise MalformedRow("non-numeric size/dim", i + 1) from None
            if size < 1:
                raise MalformedRow(f"heatmap size must be >= 1, got {size}", i + 1)
            if not (math.isfinite(image_dim) and image_dim > 0):
                raise MalformedRow(
                    f"image_dim must be finite and > 0, got {dim_s}", i + 1
                )
            if i + 1 + size > len(lines):
                raise MalformedRow(f"expected {size} grid rows", i + 1)
            if (image_id, label) in seen:
                raise MalformedRow(
                    f"duplicate heatmap for image {image_id!r}, class {label!r}",
                    i + 1,
                )
            seen.add((image_id, label))
            headers.append((image_id, label, size, image_dim, i))
            i += 1 + size
    except MalformedRow as err:
        return headers, err
    return headers, None


def _loadtxt(rows: list[str]) -> Optional[np.ndarray]:
    """`np.loadtxt` of the rows as a 2-d array, or None when it raises.

    loadtxt reads a subset of the tokens float() reads, to the same
    values; it skips blank rows, and warns when every row is blank.
    Given the row count, it allocates the array once instead of growing it.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(rows, ndmin=2, comments=None, max_rows=len(rows))
    except ValueError:
        return None


def _parse_grid_rows(block: list[str], size: int, row_no: int) -> np.ndarray:
    """Parse S rows of S scores token by token with float(), naming the
    first bad row (numbered from row_no) in the error. A short or
    non-numeric row is named before a non-finite one of the same block."""
    rows = []
    for k, line in enumerate(block):
        values = line.split()
        if len(values) != size:
            raise MalformedRow(f"expected {size} scores per row", row_no + k)
        try:
            rows.append([float(v) for v in values])
        except ValueError:
            raise MalformedRow("non-numeric score", row_no + k) from None
    grid = np.array(rows)
    finite_rows = np.isfinite(grid).all(axis=-1)
    if not finite_rows.all():
        raise MalformedRow("non-finite score", row_no + int(np.argmin(finite_rows)))
    return grid


def load_boxes(path, with_threshold: bool = False) -> BoxTable:
    """Read box rows: image_id, class, x, y, w, h, plus a trailing
    threshold column for detection files.

    The rows are read in one pass and parsed column by column with
    float() and int(); the finiteness and sign checks run once over the
    array. When a row fails, `_load_boxes_by_row` reads the file again and
    raises the first bad row's error.
    """
    width = 7 if with_threshold else 6
    try:
        rows = [fields for _, fields in read_rows(path, width, "box row")]
        columns = list(zip(*rows)) or [()] * width
        xywh = np.array([list(map(float, column)) for column in columns[2:6]]).T
        thresholds = (_int_array(list(map(int, columns[6])))
                      if with_threshold else None)
    except (CxrLabelError, ValueError):
        return BoxTable.from_boxes(_load_boxes_by_row(path, with_threshold))
    extents = xywh[:, 2:]
    if not (np.isfinite(xywh).all()
            and (extents > 0 if with_threshold else extents >= 0).all()):
        return BoxTable.from_boxes(_load_boxes_by_row(path, with_threshold))
    return BoxTable(list(columns[0]), list(columns[1]), xywh, thresholds)


def _load_boxes_by_row(path, with_threshold: bool) -> list[BBox]:
    """`load_boxes` one row at a time, raising the first bad row's error."""
    boxes: list[BBox] = []
    for row_no, fields in read_rows(path, 7 if with_threshold else 6, "box row"):
        try:
            x, y, w, h = (float(v) for v in fields[2:6])
        except ValueError:
            raise MalformedRow("non-numeric box geometry", row_no) from None
        try:
            threshold = int(fields[6]) if with_threshold else None
        except ValueError:
            raise MalformedRow("non-integer detection threshold", row_no) from None
        if not all(map(math.isfinite, (x, y, w, h))):
            raise MalformedRow("non-finite box geometry", row_no)
        if with_threshold and not (w > 0 and h > 0):
            raise MalformedRow("detection box needs positive w and h", row_no)
        if w < 0 or h < 0:
            raise MalformedRow("box needs non-negative w and h", row_no)
        boxes.append(BBox(fields[0], fields[1], x, y, w, h, threshold))
    return boxes


def write_boxes(boxes: Iterable[BBox], handle, with_threshold: bool = False):
    for box in boxes:
        row = [box.image_id, box.label] + [f"{v:g}" for v in
                                           (box.x, box.y, box.w, box.h)]
        if with_threshold:
            row.append(str(box.threshold if box.threshold is not None else 0))
        handle.write("\t".join(row) + "\n")
