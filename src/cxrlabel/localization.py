"""Turn per-class heatmaps into bounding boxes; box overlap measures.

Heatmap scores are normalized to [0,255], thresholded, grouped into
8-connected regions, and wrapped in tight boxes scaled to image pixels.
IoU and IoBB score detections against ground truth.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from cxrlabel.errors import (
    DEFAULT_THRESHOLDS,
    CxrLabelError,
    MalformedRow,
    ZeroAreaDetection,
    decode_fixed_width,
    read_input,
    read_rows,
)
from cxrlabel.lazy import np, record


@record(eq=False)
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


@record
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


@record(eq=False)
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

    def __post_init__(self):
        if (self.xywh[:, 2:] < 0).any():  # BBox raises the first such row's error
            list(map(BBox, self.image_ids, self.labels, *self.xywh.T.tolist()))

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
        return BBox._checked(self.image_ids[k], self.labels[k], *self.xywh[k].tolist(),
                             threshold)

    def take(self, rows: np.ndarray) -> "BoxTable":
        """The table of rows `rows` (an int array), in that order."""
        picked = rows.tolist()
        return BoxTable([self.image_ids[k] for k in picked],
                        [self.labels[k] for k in picked], self.xywh[rows],
                        None if self.thresholds is None else self.thresholds[rows],
                        None if self.boxes is None else [self.boxes[k] for k in picked])

    def __iter__(self):
        if self.boxes is not None:
            return iter(self.boxes)
        thresholds = ([None] * len(self) if self.thresholds is None
                      else self.thresholds.tolist())
        return (BBox._checked(image_id, label, *geometry, threshold)
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


def _regions(padded: np.ndarray):
    """The 8-connected regions of each (H+2, W+2) slab of a bool stack
    whose border cells are all False, labelled over the row runs of mask
    cells (He, Chao & Suzuki, IEEE TIP 2008).

    Returns the row, first and last column of every run (row-major within
    each slab, rows and columns counted inside the border), the region of
    each run, and the slab, min row, min col, max row and max col of each
    region. Regions are numbered by slab, then (min row, min col), then
    their first cell in row-major order.
    """
    _, height, width = padded.shape
    cells = np.flatnonzero(padded)
    # Where in `cells` each run starts, and one past the end of the last.
    heads = np.flatnonzero(np.diff(cells, prepend=-2, append=padded.size + 1) != 1)
    starts, stops = cells[heads[:-1]], cells[heads[1:] - 1] + 1
    # Link each run to every run of the next row that touches it, diagonals
    # included: that stops past the column before its start and starts at
    # or before the column after its end. The border keeps links in a slab.
    first = np.searchsorted(stops - width, starts)
    count = np.searchsorted(starts - width, stops, side="right") - first
    a = np.repeat(np.arange(len(starts)), count)
    b = np.arange(len(a)) + np.repeat(first - np.cumsum(count) + count, count)
    root = np.arange(len(starts))
    while len(a):
        a, b = _hook(root, a, b)
    firsts = np.flatnonzero(root == np.arange(len(root)))
    region = np.searchsorted(firsts, root)
    slab, row = np.divmod(starts, height * width)
    row, col = np.divmod(row, width)
    row -= 1
    col -= 1
    last = col + (stops - starts - 1)
    c0, r1, c1 = (np.full(len(firsts), fill) for fill in (width, -1, -1))
    np.minimum.at(c0, region, col)
    np.maximum.at(r1, region, row)
    np.maximum.at(c1, region, last)
    # A region's first run is in its min row. Sorting stably by the index
    # of (slab, min row, min col) keeps the order of the first cells.
    order = np.argsort(starts[firsts] + (c0 - col[firsts]), kind="stable")
    return (row, col, last), np.argsort(order)[region], (
        slab[firsts][order], row[firsts][order], c0[order], r1[order], c1[order])


def connected_regions(intgrid, t: int) -> list[frozenset[tuple[int, int]]]:
    """8-connected components of cells with value > t, ordered by their
    top-left extreme (min row, then min col), then by their first cell in
    row-major order."""
    _check_threshold(t)
    grid = np.asarray(intgrid)
    padded = np.zeros((1, grid.shape[0] + 2, grid.shape[1] + 2), dtype=bool)
    padded[0, 1:-1, 1:-1] = grid > t
    (rows, c0s, c1s), region, extents = _regions(padded)
    regions: list[set[tuple[int, int]]] = [set() for _ in extents[0]]
    for r, c0, c1, k in zip(*(a.tolist() for a in (rows, c0s, c1s, region))):
        regions[k].update((r, c) for c in range(c0, c1 + 1))
    return [frozenset(cells) for cells in regions]


def boxes_from_heatmap(
    heatmap: Heatmap, thresholds: Iterable[int] = DEFAULT_THRESHOLDS
) -> list[BBox]:
    """Tight boxes around each connected region, per threshold.

    Cell (i, j) covers the pixel rectangle [j*f, (j+1)*f) x [i*f, (i+1)*f)
    with f = image_dim / S. The union over thresholds is returned as-is:
    nested or duplicate boxes are not merged.
    """
    return list(boxes_from_heatmaps([heatmap], thresholds))


# At most this many cells are thresholded in one numpy pass, which bounds
# the working memory however many maps there are.
_NORMALIZE_CELLS = 1 << 16


def _cut_values(grids: np.ndarray, levels: np.ndarray):
    """The differences d of each grid of an (n, S, S) stack from its least
    cell, written over the stack; the (n, T, 1, 1) cut values c such that
    `normalize_heatmap(grid) > t` is `d >= c` for each t of the (T, 1, 1)
    `levels`; and the (n,) flags of the grids that have them.

    The normalized value y = fl(fl(d * scale) + 0.5) is monotone in d, and
    its floor exceeds t when y >= t + 1; c is the least such double,
    sought at most 4 doubles up or down from (t + 0.5) / scale. A grid
    whose search does not settle, or that `normalize_heatmap` rescales,
    has none.
    """
    lo, span, scale = _range_scale(grids)
    rescaled = (np.isinf(span) | np.isinf(scale))[:, None]
    scale, target = scale[:, None], levels + 1.0

    def reaches(cut):
        return cut * scale + 0.5 >= target

    with np.errstate(all="ignore"):
        diffs = np.subtract(grids, lo, out=grids)
        cut = (levels + 0.5) / scale
        # A cut moves up or down, never both ways. The fifth pass finds the
        # cuts still off after four moves, whose grids then have none.
        for _ in range(5):
            below = np.nextafter(cut, -np.inf)
            up, down = ~reaches(cut), reaches(below)
            if not (up | down).any():
                break
            cut = np.where(up, np.nextafter(cut, np.inf), np.where(down, below, cut))
    return diffs, cut, ~(rescaled | up | down).any(axis=(1, 2, 3))


def boxes_from_heatmaps(
    heatmaps: Iterable[Heatmap], thresholds: Iterable[int] = DEFAULT_THRESHOLDS
) -> BoxTable:
    """The table of `boxes_from_heatmap` of each map, concatenated in map
    order.

    The maps of one size are thresholded at every threshold into one bool
    stack, each map by comparing its scores less its least with its cut
    values (see `_cut_values`), and labelled together over the row runs of
    the masks; the boxes are columns from the region extents on, and no
    BBox is built. A map without cut values is thresholded by
    `normalize_heatmap`.
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
    # The map, the threshold index and the x, y, w, h of each box, per size.
    owners = [np.zeros(0, dtype=np.intp)]
    levels_of = [np.zeros(0, dtype=np.intp)]
    geometry = [np.zeros((0, 4))]
    for size, members in by_size.items():
        padded = np.zeros((len(members), len(thresholds), size + 2, size + 2),
                          dtype=bool)
        step = max(1, _NORMALIZE_CELLS // (size * size))
        for start in range(0, len(members), step):
            part = members[start:start + step]
            grids = np.concatenate([heatmaps[k].grid for k in part])
            diffs, cuts, settled = _cut_values(grids.reshape(-1, size, size), levels)
            masks = padded[start:start + step, :, 1:-1, 1:-1]
            for i in range(len(thresholds)):
                np.greater_equal(diffs, cuts[:, i], out=masks[:, i])
            if not settled.all():
                rest = np.stack([heatmaps[k].grid for k in np.array(part)[~settled]])
                masks[~settled] = normalize_heatmap(rest)[:, None] > levels
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
        owners.append(np.array(members)[member])
        levels_of.append(level)
        geometry.append(np.stack((x, y, w, h), axis=1))
    # Each size's boxes are in map order already; a stable sort merges the
    # sizes and keeps each map's boxes in their order.
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    index = owner[order].tolist()
    image_ids = [heatmap.image_id for heatmap in heatmaps]
    labels = [heatmap.label for heatmap in heatmaps]
    return BoxTable([image_ids[k] for k in index], [labels[k] for k in index],
                    np.concatenate(geometry)[order],
                    np.array(thresholds)[np.concatenate(levels_of)[order]])


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
    r"""Read blocks of "image_id<TAB>class<TAB>S<TAB>image_dim" headers,
    each followed by S rows of S space-separated scores. A file names
    each (image_id, class) at most once.

    The bytes are read once, with `\r\n` and a lone `\r` made `\n` and a
    final newline added, so that lines break as text mode reads them. The
    file is then scanned header to header jumping over the grid rows, and
    the rows of all maps of one size are decoded from the bytes in one
    pass (see `_load`); a file the jumping scan or the decoder declines is
    scanned again stepping line by line, and each size the decoder
    declines is parsed row by row with float(), which gives the same maps
    or names the first bad line.
    """
    data = read_input(path)
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data and not data.endswith(b"\n"):
        data += b"\n"  # the last line reads the same without it
    return _load(data, jump=True) or _load(data, jump=False)


def _header(line: str, row_no: int):
    """The image id, class, S and image_dim of a header line, or the
    MalformedRow that names it as row `row_no`."""
    fields = line.split("\t")
    if len(fields) != 4:
        raise MalformedRow("heatmap header needs 4 fields", row_no)
    image_id, label, size_s, dim_s = fields
    try:
        size = int(size_s)
        image_dim = float(dim_s)
    except ValueError:
        raise MalformedRow("non-numeric size/dim", row_no) from None
    if size < 1:
        raise MalformedRow(f"heatmap size must be >= 1, got {size}", row_no)
    if not (math.isfinite(image_dim) and image_dim > 0):
        raise MalformedRow(f"image_dim must be finite and > 0, got {dim_s}", row_no)
    return image_id, label, size, image_dim


def _scan(data: bytes, jump: bool):
    """The (image_id, class, S, image_dim, offset of the first grid row,
    offset past the last, line of the header) of each map in file order,
    up to the first bad header, and that header's MalformedRow (None when
    every header is good); or, with `jump`, None instead of an error.

    Skips blank and "#" lines where a header is due, and S grid rows after
    each header: with `jump`, in one jump of S times the length of the
    first row, which a non-UTF-8 landing or a bad header also declines;
    otherwise newline by newline. Nothing here checks the rows, and
    nothing sized by a header's S is allocated before the rows are found
    within the file.
    """
    maps = []
    seen: set[tuple[str, str]] = set()
    at, line_no, end = 0, 1, len(data)
    try:
        while at < end:
            stop = data.find(b"\n", at)
            line = data[at:stop].decode("utf-8")  # a jump may land mid-character
            if not line.strip() or line.startswith("#"):
                at, line_no = stop + 1, line_no + 1
                continue
            image_id, label, size, image_dim = _header(line, line_no)
            first = at = stop + 1
            if jump:
                at += size * (data.find(b"\n", first) + 1 - first)
            else:
                for _ in range(size):
                    at = data.find(b"\n", at) + 1
                    if not at:
                        break
            if not first < at <= end:
                raise MalformedRow(f"expected {size} grid rows", line_no)
            if (image_id, label) in seen:
                raise MalformedRow(
                    f"duplicate heatmap for image {image_id!r}, class {label!r}",
                    line_no,
                )
            seen.add((image_id, label))
            maps.append((image_id, label, size, image_dim, first, at, line_no))
            line_no += 1 + size
    except (UnicodeDecodeError, MalformedRow) as err:
        return None if jump else (maps, err)
    return maps, None


def _load(data: bytes, jump: bool) -> Optional[list[Heatmap]]:
    """The maps of `_scan(data, jump)`, or None when it declines or, with
    `jump`, when the byte decoder declines a size.

    The grid rows of all maps of one size are decoded from the bytes
    together (see `_fixed_width_grids`), the sizes with the fewest bytes
    of rows first, so that a size the decoder declines wastes little
    decoding. Each row the decoder reads is a whole line of the first
    row's length, so the jumps landed on the headers that stepping finds.
    Without `jump`, each map of a declined size is parsed block by block
    with float(), in file order, so the error reported is the first in
    the file, a bad cell before a bad header included.

    Each grid is checked once: the byte decoder yields only finite
    values and the per-row parser rejects a non-finite row; every grid is
    (S, S) float64, and the scan has checked each dim. So each Heatmap is
    built without re-running its checks.
    """
    scanned = _scan(data, jump)
    if scanned is None:
        return None
    maps, header_error = scanned
    by_size: dict[int, list[int]] = {}
    row_bytes: dict[int, int] = {}
    for k, (_, _, size, _, first, stop, _) in enumerate(maps):
        by_size.setdefault(size, []).append(k)
        row_bytes[size] = row_bytes.get(size, 0) + stop - first
    grids: list = [None] * len(maps)
    for size in sorted(by_size, key=row_bytes.get):
        members = by_size[size]
        firsts = np.array([maps[k][4] for k in members])
        first = int(firsts[0])
        values = _fixed_width_grids(data, firsts, data.find(b"\n", first) + 1 - first,
                                    size)
        if values is not None:
            for k, grid in zip(members, values):
                grids[k] = grid
        elif jump:
            return None
    heatmaps: list[Heatmap] = []
    for entry, grid in zip(maps, grids):
        image_id, label, size, image_dim, first, stop, line_no = entry
        if grid is None:
            rows = data[first:stop - 1].decode("utf-8").split("\n")
            grid = _parse_grid_rows(rows, size, line_no + 1)
        heatmaps.append(Heatmap._checked(image_id, label, grid, image_dim))
    if header_error is not None:
        raise header_error
    return heatmaps


def _fixed_width_grids(data: bytes, firsts: np.ndarray, length: int,
                       size: int) -> Optional[np.ndarray]:
    """The (n, S, S) grids whose S rows of `length` bytes each follow one
    another from the ascending byte offsets `firsts` of `data`, decoded
    from the bytes by `decode_fixed_width` with space-separated tokens; or
    None when it declines them or a row holds other than S tokens.
    """
    grids = decode_fixed_width(data, firsts, length, size, b" ")
    if grids is None or grids.shape[2] != size:
        return None
    return grids


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
    array. A detection also needs an area w * h above 0, which the
    overlap measures divide by and which tiny positive extents underflow.
    When a row fails, `_load_boxes_by_row` reads the file again and
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
            and (extents > 0 if with_threshold else extents >= 0).all()
            and (not with_threshold or (extents[:, 0] * extents[:, 1] > 0).all())):
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
        if with_threshold and not w * h > 0:
            # The area the overlap measures divide by underflows.
            raise MalformedRow(f"detection box area {w!r} * {h!r} underflows to 0",
                               row_no)
        if w < 0 or h < 0:
            raise MalformedRow("box needs non-negative w and h", row_no)
        boxes.append(BBox(fields[0], fields[1], x, y, w, h, threshold))
    return boxes


def write_boxes(boxes: BoxTable | Iterable[BBox], handle,
                with_threshold: bool = False):
    """Write one tab-separated row per box: image id, class, and x, y, w,
    h by `:g`, then with `with_threshold` the threshold (0 for None). The
    cells are formatted column by column and written in one piece.

    Boxes from heatmaps have their edges on the cell grid, so a few values
    fill every row: each distinct float, told apart by its bits (so -0.0
    is not 0.0), is formatted once."""
    table = box_table(boxes)
    bits = np.ascontiguousarray(table.xywh, dtype=float).ravel().view(np.int64)
    values, inverse = np.unique(bits, return_inverse=True)
    texts = np.array([f"{v:g}" for v in values.view(float).tolist()], dtype=object)
    cells = texts[inverse].tolist()
    columns = [table.image_ids, table.labels, *(cells[k::4] for k in range(4))]
    if with_threshold:
        thresholds = (table.thresholds.tolist() if table.thresholds is not None
                      else [box.threshold for box in table])
        columns.append([str(0 if t is None else t) for t in thresholds])
    if len(table):
        handle.write("\n".join(map("\t".join, zip(*columns))) + "\n")
