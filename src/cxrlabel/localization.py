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

import numpy as np

from cxrlabel.errors import (
    CxrLabelError,
    MalformedRow,
    ZeroAreaDetection,
    open_input,
)

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
        if not np.all(np.isfinite(grid)):
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


def normalize_heatmap(heatmap) -> np.ndarray:
    """Map scores linearly onto integers 0..255, rounding half-up.

    A constant grid normalizes to all zeros: it carries no localization
    evidence.
    """
    grid = heatmap.grid if isinstance(heatmap, Heatmap) else np.asarray(
        heatmap, dtype=float
    )
    lo = float(np.min(grid))
    hi = float(np.max(grid))
    if hi == lo:
        return np.zeros(grid.shape, dtype=int)
    scaled = (grid - lo) * (255.0 / (hi - lo))
    return np.floor(scaled + 0.5).astype(int)


_NEIGHBORS = tuple(
    (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)
)


def connected_regions(intgrid, t: int) -> list[frozenset[tuple[int, int]]]:
    """8-connected components of cells with value > t, ordered by their
    top-left extreme (min row, then min col)."""
    if not 0 <= t <= 255:
        raise MalformedRow(f"threshold {t} outside 0..255")
    rows, cols = np.nonzero(np.asarray(intgrid) > t)
    mask_cells = list(zip(rows.tolist(), cols.tolist()))
    # Mask cells not yet in a region; a neighbour off the grid is never here.
    unvisited = set(mask_cells)
    regions: list[frozenset[tuple[int, int]]] = []
    for seed in mask_cells:  # row-major, as the sort below expects for ties
        if seed not in unvisited:
            continue
        unvisited.remove(seed)
        region = [seed]
        stack = [seed]
        while stack:
            r, c = stack.pop()
            for dr, dc in _NEIGHBORS:
                cell = (r + dr, c + dc)
                if cell in unvisited:
                    unvisited.remove(cell)
                    region.append(cell)
                    stack.append(cell)
        regions.append(frozenset(region))
    regions.sort(key=lambda cells: (min(r for r, _ in cells),
                                    min(c for _, c in cells)))
    return regions


def boxes_from_heatmap(
    heatmap: Heatmap, thresholds: Iterable[int] = DEFAULT_THRESHOLDS
) -> list[BBox]:
    """Tight boxes around each connected region, per threshold.

    Cell (i, j) covers the pixel rectangle [j*f, (j+1)*f) x [i*f, (i+1)*f)
    with f = image_dim / S. The union over thresholds is returned as-is:
    nested or duplicate boxes are not merged.
    """
    thresholds = sorted(set(thresholds))
    if not thresholds:
        raise MalformedRow("thresholds must be nonempty")
    intgrid = normalize_heatmap(heatmap)
    factor = heatmap.image_dim / heatmap.size
    boxes: list[BBox] = []
    for t in thresholds:
        for cells in connected_regions(intgrid, t):
            r0 = min(r for r, _ in cells)
            r1 = max(r for r, _ in cells)
            c0 = min(c for _, c in cells)
            c1 = max(c for _, c in cells)
            x = c0 * factor
            y = r0 * factor
            w = (c1 - c0 + 1) * factor
            h = (r1 - r0 + 1) * factor
            # Clip to image bounds; the grid arithmetic already lands
            # inside, this guards float fuzz only.
            x = max(0.0, x)
            y = max(0.0, y)
            w = min(w, heatmap.image_dim - x)
            h = min(h, heatmap.image_dim - y)
            boxes.append(
                BBox(heatmap.image_id, heatmap.label, x, y, w, h, threshold=t)
            )
    return boxes


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


# --- file formats ---

def load_heatmaps(path) -> list[Heatmap]:
    """Read blocks of "image_id<TAB>class<TAB>S<TAB>image_dim" headers,
    each followed by S rows of S space-separated scores."""
    heatmaps: list[Heatmap] = []
    with open_input(path) as handle:
        lines = [line.rstrip("\n") for line in handle]
    i = 0
    while i < len(lines):
        if not lines[i].strip() or lines[i].startswith("#"):
            i += 1
            continue
        fields = lines[i].split("\t")
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
        block = lines[i + 1:i + 1 + size]
        try:
            # loadtxt reads a subset of the tokens float() reads, to the same
            # values; it skips blank rows, and warns when every row is blank.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                grid = np.loadtxt(block, ndmin=2, comments=None)
        except ValueError:
            grid = None
        if grid is None or grid.shape != (size, size):
            grid = _parse_grid_rows(block, size, i + 2)
        finite_rows = np.isfinite(grid).all(axis=-1)
        if not finite_rows.all():
            first = int(np.argmin(finite_rows))
            raise MalformedRow("non-finite score", i + 2 + first)
        heatmaps.append(Heatmap(image_id, label, grid, image_dim))
        i += 1 + size
    return heatmaps


def _parse_grid_rows(block: list[str], size: int, row_no: int) -> np.ndarray:
    """Parse S rows of S scores token by token with float(), naming the
    first bad row (numbered from row_no) in the error."""
    rows = []
    for k, line in enumerate(block):
        values = line.split()
        if len(values) != size:
            raise MalformedRow(f"expected {size} scores per row", row_no + k)
        try:
            rows.append([float(v) for v in values])
        except ValueError:
            raise MalformedRow("non-numeric score", row_no + k) from None
    return np.array(rows)


def load_boxes(path, with_threshold: bool = False) -> list[BBox]:
    """Read box rows: image_id, class, x, y, w, h, plus a trailing
    threshold column for detection files."""
    want = 7 if with_threshold else 6
    boxes: list[BBox] = []
    with open_input(path) as handle:
        for row_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != want:
                raise MalformedRow(f"box row needs {want} fields", row_no)
            try:
                x, y, w, h = (float(v) for v in fields[2:6])
                threshold = int(fields[6]) if with_threshold else None
            except ValueError:
                raise MalformedRow("non-numeric box geometry", row_no) from None
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
