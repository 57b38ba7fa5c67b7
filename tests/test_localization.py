"""Heatmap thresholding, connected regions, box generation, overlap scores."""

import io
import math
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from cxrlabel import localization
from cxrlabel.errors import (
    CxrLabelError,
    MalformedRow,
    NotUtf8,
    ZeroAreaDetection,
)
from cxrlabel.localization import (
    DEFAULT_THRESHOLDS,
    BBox,
    BoxTable,
    Heatmap,
    _load_boxes_by_row,
    _parse_grid_rows,
    boxes_from_heatmap,
    boxes_from_heatmaps,
    connected_regions,
    iobb,
    iou,
    load_boxes,
    load_heatmaps,
    normalize_heatmap,
    pair_overlaps,
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


def connected_regions_by_fill(intgrid, t):
    """Reference: seed regions at the mask cells in row-major order and
    flood-fill each through the set of mask cells not yet visited; regions
    are then stably sorted by (min row, min col)."""
    rows, cols = np.nonzero(np.asarray(intgrid) > t)
    mask_cells = list(zip(rows.tolist(), cols.tolist()))
    unvisited = set(mask_cells)
    regions = []
    for seed in mask_cells:
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


def boxes_by_fill(heatmap, thresholds):
    """Reference: one map at a time, normalized on its own, its regions
    found by flood fill and boxed with min/max over their cells."""
    grid = heatmap.grid
    lo, hi = float(np.min(grid)), float(np.max(grid))
    if hi == lo:
        intgrid = np.zeros(grid.shape, dtype=int)
    else:
        intgrid = np.floor((grid - lo) * (255.0 / (hi - lo)) + 0.5).astype(int)
    factor = heatmap.image_dim / heatmap.size
    boxes = []
    for t in sorted(set(thresholds)):
        for cells in connected_regions_by_fill(intgrid, t):
            r0 = min(r for r, _ in cells)
            r1 = max(r for r, _ in cells)
            c0 = min(c for _, c in cells)
            c1 = max(c for _, c in cells)
            x = max(0.0, c0 * factor)
            y = max(0.0, r0 * factor)
            w = min((c1 - c0 + 1) * factor, heatmap.image_dim - x)
            h = min((r1 - r0 + 1) * factor, heatmap.image_dim - y)
            boxes.append(BBox(heatmap.image_id, heatmap.label, x, y, w, h, t))
    return boxes


def serpentine(size):
    """One path that runs along every even row and turns at alternate
    ends: about size**2 / 2 cells, with a geodesic length of the same."""
    grid = np.zeros((size, size))
    grid[::2] = 1.0
    grid[1::4, -1] = 1.0
    grid[3::4, 0] = 1.0
    return grid


def spiral(size):
    """A one-cell-wide path spiralling in from the top-left corner, one
    free cell between its turns: a geodesic length of about size**2 / 2."""
    grid = np.zeros((size, size))
    r, c, dr, dc = 0, 0, 0, 1
    grid[0, 0] = 1.0

    def free(row, col):
        return 0 <= row < size and 0 <= col < size and not grid[row, col]

    while True:
        for _ in range(2):  # straight on, else turn right
            ahead = not (0 <= r + 2 * dr < size and 0 <= c + 2 * dc < size
                         and grid[r + 2 * dr, c + 2 * dc])
            if free(r + dr, c + dc) and ahead:
                r, c = r + dr, c + dc
                grid[r, c] = 1.0
                break
            dr, dc = dc, -dr
        else:
            return grid


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
def fixed_width_rows(draw, size):
    """S rows of S "%.4f" scores in [0, 10): the rows the byte decoder
    reads."""
    scores = st.lists(st.floats(0, 9.999), min_size=size, max_size=size)
    return [" ".join(f"{v:.4f}" for v in draw(scores)) for _ in range(size)]


@st.composite
def heatmap_texts(draw):
    size = draw(st.integers(1, 4))
    if draw(st.booleans()):
        rows = draw(fixed_width_rows(size))
        if draw(st.booleans()):
            rows[draw(st.integers(0, size - 1))] = draw(grid_rows(size))
    else:
        rows = [draw(grid_rows(size)) for _ in range(size)]
    # A second, clean block shows that rows are numbered across blocks.
    return "\n".join([f"i1\tMass\t{size}\t64", *rows, "i2\tMass\t1\t8", "5"])


def loaded_or_error(path, loader=load_heatmaps):
    try:
        return [
            (h.image_id, h.label, h.image_dim, h.grid.shape, h.grid.tobytes())
            for h in loader(path)
        ]
    except CxrLabelError as err:
        return str(err)


def load_heatmaps_by_block(path):
    """Reference: read each block in file order, its grid with one
    loadtxt, falling back to the per-row parser when that does not give
    an S x S grid; stop at the first bad header or row."""
    heatmaps = []
    with open(path, encoding="utf-8") as handle:
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                grid = np.loadtxt(block, ndmin=2, comments=None)
        except ValueError:
            grid = None
        if grid is None or grid.shape != (size, size):
            grid = _parse_grid_rows(block, size, i + 2)
        finite_rows = np.isfinite(grid).all(axis=-1)
        if not finite_rows.all():
            raise MalformedRow("non-finite score", i + 2 + int(np.argmin(finite_rows)))
        heatmaps.append(Heatmap(image_id, label, grid, image_dim))
        i += 1 + size
    return heatmaps


# A bad grid row: replace the row, or one of its cells.
BAD_ROWS = ["cell x", "cell nan", "cell inf", "blank", "short", "long"]
# A bad header for block k ({size} is the size of its grid rows).
BAD_HEADERS = [
    "i{k}\tC\t{size}",
    "i{k}\tC\t0\t64",
    "i{k}\tC\t-1\t64",
    "i{k}\tC\tx\t64",
    "i{k}\tC\t{size}\tinf",
    "i{k}\tC\t{size}\t0",
    "i{k}\tC\t99\t64",
]


@st.composite
def interleaved_heatmap_texts(draw):
    """Blocks of several sizes, with blank and comment lines between
    them; maybe a bad grid row in one block and a bad header in the same
    or a later block (or after the last)."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=1, max_size=6))
    bad_row = draw(st.none() | st.tuples(
        st.integers(0, len(sizes) - 1), st.integers(0, 4), st.sampled_from(BAD_ROWS)
    ))
    first_bad_header = bad_row[0] if bad_row else 0
    bad_header = draw(st.none() | st.tuples(
        st.integers(first_bad_header, len(sizes)), st.sampled_from(BAD_HEADERS)
    ))
    lines = []
    for k, size in enumerate([*sizes, 1]):
        lines.extend(draw(st.lists(st.sampled_from(["", "# note", " ", "\t"]),
                                   max_size=2)))
        if bad_header and bad_header[0] == k:
            lines.append(bad_header[1].format(k=k, size=size))
        elif k == len(sizes):
            break
        else:
            dim = draw(st.sampled_from(["64", "100", "7.5"]))
            lines.append(f"i{k}\tC{k % 2}\t{size}\t{dim}")
        # Most blocks are fixed-width; a "%g" block sends its whole size
        # through loadtxt.
        style = draw(st.sampled_from(["{:.3f}"] * 3 + ["{:g}"]))
        for r in range(size):
            cells = [style.format(v) for v in draw(
                st.lists(st.floats(0, 1), min_size=size, max_size=size)
            )]
            if bad_row and bad_row[0] == k and bad_row[1] % size == r:
                kind = bad_row[2]
                if kind.startswith("cell "):
                    cells[draw(st.integers(0, size - 1))] = kind[5:]
                elif kind == "blank":
                    cells = []
                elif kind == "short":
                    cells.pop()
                else:
                    cells.append("0.5")
            lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


@st.composite
def heatmap_lists(draw):
    """Up to six maps of sizes 1..40 in one list: normal scores, plateaus
    of a few levels (many ties), checkerboards of them (corner-only
    contacts) and constant maps, with image_dim values that S does not
    divide evenly."""
    maps = []
    for k in range(draw(st.integers(0, 6))):
        size = draw(st.integers(1, 40))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kind = draw(st.sampled_from(["normal", "levels", "checker", "constant"]))
        if kind == "constant":
            grid = np.full((size, size), draw(st.floats(-1e3, 1e3)))
        elif kind == "normal":
            grid = rng.normal(size=(size, size))
        else:
            grid = rng.integers(0, 4, size=(size, size)).astype(float)
            if kind == "checker":
                grid[np.add.outer(np.arange(size), np.arange(size)) % 2 == 1] = 0.0
        dim = draw(st.sampled_from([1, 7, 100, 333.3, 1000, 1024.0, 0.001]))
        maps.append(Heatmap(f"i{k}", f"c{size}", grid, dim))
    return maps


# Mantissas at the edge of exactness: 15 digits next to 2**53 / 10, the
# largest 15-digit one, and 16 digits next to 2**53, where float64 stops
# holding every integer.
EDGE_MANTISSAS = [2**53 // 10 - 1, 2**53 // 10, 2**53 // 10 + 1, 10**15 - 1,
                  2**53 - 1, 2**53, 2**53 + 1]


@st.composite
def fixed_width_tokens(draw, width, dot):
    """A token of `width` bytes: digits, leading zeros kept, around a "."
    at column `dot`."""
    digits = width - 1
    mantissas = st.integers(0, 10**digits - 1)
    edges = [m for m in EDGE_MANTISSAS if m < 10**digits]
    if edges:
        mantissas |= st.sampled_from(edges)
    text = str(draw(mantissas)).zfill(digits)
    return text[:dot] + "." + text[dot:]


@st.composite
def fixed_width_grids(draw, blocks=1):
    """(S, width, rows): S rows of S tokens for each block, the tokens of
    one width from 3 to 17, with the "." at any inner column."""
    size = draw(st.integers(1, 4))
    width = draw(st.integers(3, 17))
    dot = draw(st.integers(1, width - 2))
    token = fixed_width_tokens(width, dot)
    rows = [" ".join(draw(st.lists(token, min_size=size, max_size=size)))
            for _ in range(blocks * size)]
    return size, width, rows


# Edits of one token that the byte decoder declines.
ODD_CELLS = ["1e3", "nan", "1_0", "\u0661", "-", "+"]


@st.composite
def edited_fixed_width_texts(draw):
    r"""Two fixed-width blocks of one size with one edit: a token one byte
    wider, a sign, an exponent, nan, an underscore or a non-ASCII digit in
    place of a token or of its first bytes, a trailing space, a tab or
    another byte in place of a space, "\r\n" or "\r" line ends, no final
    newline, blank or "#" lines between the blocks, or a non-ASCII image
    id."""
    size, _, rows = draw(fixed_width_grids(blocks=2))
    rows, more = rows[:size], rows[size:]
    edit = draw(st.sampled_from(["wider", "cell", "overlay", "trailing space",
                                 "gap", "\r\n", "\r", "no final newline",
                                 "between", "image id"]))
    r = draw(st.integers(0, size - 1))
    tokens = rows[r].split(" ")
    t = draw(st.integers(0, size - 1))
    odd = draw(st.sampled_from(ODD_CELLS))
    if edit == "wider":
        tokens[t] = "0" + tokens[t]
    elif edit == "cell":
        tokens[t] = odd
    elif edit == "overlay":
        tokens[t] = odd + tokens[t][len(odd):]
    elif edit == "trailing space":
        tokens[-1] += " "
    elif edit == "gap" and size > 1:
        gap = draw(st.sampled_from(["\t", "\x0b", "0", ",", "x"]))
        tokens[t - 1] += gap + tokens.pop(t)
    rows[r] = " ".join(tokens)
    image_id = "\u00efmage" if edit == "image id" else "i1"
    between = ""
    if edit == "between":
        between = draw(st.sampled_from(["\n", "# x\n", " \n"]))
    text = (f"{image_id}\tMass\t{size}\t64\n" + "\n".join(rows) + "\n" + between
            + f"i2\tMass\t{size}\t64\n" + "\n".join(more) + "\n")
    if edit in ("\r\n", "\r"):
        text = text.replace("\n", edit)
    if edit == "no final newline":
        text = text[:-1]
    return text


THRESHOLD_SETS = st.lists(
    st.sampled_from([0, 1, 60, 128, 180, 254, 255]) | st.integers(0, 255),
    min_size=1, max_size=4,
)


def pixel_cells(box: BBox):
    """Integer pixel cells covered by an integer-coordinate box."""
    x, y, w, h = int(box.x), int(box.y), int(box.w), int(box.h)
    return {(px, py) for px in range(x, x + w) for py in range(y, y + h)}


# Coordinates and extents where the overlap arithmetic is delicate:
# signed zeros, subnormals, infinities, NaN and values near overflow.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                  1.0, 0.5, 3.0, 1e308, -1e308, math.inf, -math.inf, math.nan]
COORDS = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=True)
EXTENTS = (st.sampled_from([v for v in SPECIAL_FLOATS if not v < 0])
           | st.floats(min_value=0.0))


@st.composite
def edge_boxes(draw, count):
    return [BBox("i", "c", draw(COORDS), draw(COORDS), draw(EXTENTS), draw(EXTENTS),
                 draw(st.none() | st.integers(0, 255)))
            for _ in range(count)]


def float_bits(values) -> list:
    """The bits of each value, and "nan" for a NaN: where two NaNs meet,
    which one x86 passes on depends on the operand order the compiler
    chose, in CPython's float arithmetic and in numpy's loops alike."""
    values = np.asarray(values, dtype=np.float64)
    return [bits if value == value else "nan"
            for value, bits in zip(values.tolist(), values.view(np.uint64).tolist())]


# Cells a mutated box file may hold: what float() or int() reads and
# numpy would not, non-finite and signed values, and nothing at all.
BOX_TOKENS = ["", "-1", "0", "-0", "x", "+1", "1_0", " 5 ", "6.5", "nan", "inf",
              "-inf", "1e400", "\u0661", str(10**12), str(10**30)]


@st.composite
def box_files(draw):
    """A box file (ground truth or detections) of up to six valid rows
    after up to three edits: a cell set to one of BOX_TOKENS, a field
    added or dropped, a row repeated, or a blank or comment line."""
    with_threshold = draw(st.booleans())
    value = st.integers(0, 50).map(str) | st.floats(0.5, 50).map(repr)
    rows = [
        [draw(st.sampled_from(["i1", "i2"])), draw(st.sampled_from(["A", "B"])),
         draw(value), draw(value), draw(value), draw(value)]
        + ([str(draw(st.integers(0, 255)))] if with_threshold else [])
        for _ in range(draw(st.integers(0, 6)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        row = rows[draw(st.integers(0, len(rows) - 1))]
        edit = draw(st.sampled_from(["token", "token", "token", "add", "drop",
                                     "repeat", "blank", "comment"]))
        if edit == "token" and len(row) > 2:
            row[draw(st.integers(2, len(row) - 1))] = draw(st.sampled_from(BOX_TOKENS))
        elif edit == "add":
            row.append(draw(st.sampled_from(BOX_TOKENS)))
        elif edit == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif edit == "repeat":
            rows.append(list(row))
        else:
            rows.insert(draw(st.integers(0, len(rows))),
                        [] if edit == "blank" else ["# note"])
    return "".join("\t".join(row) + "\n" for row in rows), with_threshold


def boxes_or_error(read, path, with_threshold):
    try:
        return list(read(path, with_threshold))
    except CxrLabelError as err:
        return type(err), str(err)


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

    def test_stack_normalizes_each_grid_on_its_own(self):
        rng = np.random.default_rng(3)
        grids = [rng.normal(size=(5, 5)), np.full((5, 5), 2.0),
                 rng.integers(0, 3, size=(5, 5)) * 1e-300]
        stacked = normalize_heatmap(np.stack(grids))
        for grid, out in zip(grids, stacked):
            assert out.tolist() == normalize_heatmap(grid).tolist()

    def test_range_past_the_largest_double_or_subnormal(self):
        wide = np.array([[-1e308, 1e308], [0.0, 0.0]])
        narrow = np.array([[0.0, 5e-324], [0.0, 0.0]])
        plain = np.array([[1.0, 2.0], [3.0, 4.0]])
        with np.errstate(all="raise"):
            assert normalize_heatmap(wide).tolist() == [[0, 255], [128, 128]]
            assert normalize_heatmap(narrow).tolist() == [[0, 255], [0, 0]]
            # The same grids scaled by a power of two into a safe range.
            assert normalize_heatmap(wide).tolist() == normalize_heatmap(
                np.ldexp(wide, -4)).tolist()
            assert normalize_heatmap(narrow).tolist() == normalize_heatmap(
                np.ldexp(narrow, 1074)).tolist()
            stacked = normalize_heatmap(np.stack([wide, plain, narrow]))
        assert stacked.tolist() == [
            normalize_heatmap(grid).tolist() for grid in (wide, plain, narrow)
        ]


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


class TestBoxesFromHeatmaps:
    @settings(max_examples=150, deadline=None)
    @given(maps=heatmap_lists(), thresholds=THRESHOLD_SETS)
    @example(maps=[], thresholds=[0, 255])
    def test_equals_flood_fill_reference_map_by_map(self, maps, thresholds):
        expected = [boxes_by_fill(heatmap, thresholds) for heatmap in maps]
        batched = boxes_from_heatmaps(maps, thresholds)
        assert batched == [box for boxes in expected for box in boxes]
        for heatmap, boxes in zip(maps, expected):
            assert boxes_from_heatmap(heatmap, thresholds) == boxes
            intgrid = normalize_heatmap(heatmap)
            for t in set(thresholds):
                regions = connected_regions(intgrid, t)
                assert regions == connected_regions_by_fill(intgrid, t)
                assert regions == connected_regions_by_scan(intgrid, t)
                assert set(regions) == scipy_regions(intgrid, t)

    @pytest.mark.parametrize("size", [128, 256])
    @pytest.mark.parametrize("shape", [serpentine, spiral])
    def test_long_geodesic_paths(self, shape, size):
        heatmap = Heatmap("i1", "Mass", shape(size), 1000.0)
        thresholds = (0, 60, 255)
        assert boxes_from_heatmaps([heatmap], thresholds) == boxes_by_fill(
            heatmap, thresholds
        )
        intgrid = normalize_heatmap(heatmap)
        regions = connected_regions(intgrid, 60)
        assert regions == connected_regions_by_fill(intgrid, 60)
        assert set(regions) == scipy_regions(intgrid, 60)
        assert len(regions) == 1

    def test_serpentine_needs_log_rounds_and_is_no_slower_than_fill(self):
        grid = serpentine(256)
        heatmap = Heatmap("i1", "Mass", grid, 1024.0)
        with mock.patch.object(localization, "_hook", wraps=localization._hook) as hook:
            boxes_from_heatmaps([heatmap], (60,))
        # A path of about 33k cells, but rounds grow with the log of that.
        assert hook.call_count <= math.log2(grid.sum())

        def best_of_three(fn):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        batched = best_of_three(lambda: boxes_from_heatmaps([heatmap], (60,)))
        by_fill = best_of_three(lambda: boxes_by_fill(heatmap, (60,)))
        assert batched <= by_fill

    def test_thresholds_validated(self):
        hm = Heatmap("i1", "Mass", np.eye(3), 100)
        with pytest.raises(MalformedRow, match="thresholds must be nonempty"):
            boxes_from_heatmaps([hm], ())
        with pytest.raises(MalformedRow, match="threshold 256 outside 0..255"):
            boxes_from_heatmaps([hm], (60, 256))


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


    @settings(max_examples=500, deadline=None)
    @given(gts=st.integers(1, 4).flatmap(edge_boxes),
           dets=st.integers(1, 4).flatmap(edge_boxes),
           mode=st.sampled_from(["iobb", "iou"]))
    @example(gts=[BBox("i", "c", -0.0, 0.0, 0.0, 5e-324)],
             dets=[BBox("i", "c", 0.0, -0.0, 5e-324, 1e308)], mode="iou")
    @example(gts=[BBox("i", "c", 0.0, 0.0, 0.0, math.inf)],
             dets=[BBox("i", "c", 0.0, 0.0, 0.0, math.nan)], mode="iou")
    def test_pair_overlaps_equal_scalar_measures_bitwise(self, gts, dets, mode):
        measure = localization.OVERLAP_MEASURES[mode]
        pairs = [(g, d) for d in range(len(dets)) for g in range(len(gts))]
        try:
            expected = float_bits([measure(gts[g], dets[d]) for g, d in pairs])
        except ZeroAreaDetection as err:
            expected = str(err)
        g, d = (np.array(rows, dtype=np.intp) for rows in zip(*pairs))
        try:
            got = float_bits(pair_overlaps(BoxTable.from_boxes(gts), g,
                                           BoxTable.from_boxes(dets), d, mode))
        except ZeroAreaDetection as err:
            got = str(err)
        assert got == expected


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
        # With the byte decoder declining and loadtxt failing, every block
        # goes through the per-row parser.
        with mock.patch.object(localization, "_fixed_width_grids",
                               return_value=None), \
                mock.patch("numpy.loadtxt", side_effect=ValueError):
            by_rows = loaded_or_error(path)
        assert fast == by_rows

    @settings(max_examples=400, deadline=None)
    @given(text=interleaved_heatmap_texts())
    def test_interleaved_sizes_equal_block_by_block_reader(
        self, tmp_path_factory, text
    ):
        path = tmp_path_factory.getbasetemp() / "interleaved_heatmaps.tsv"
        path.write_text(text, encoding="utf-8")
        assert loaded_or_error(path) == loaded_or_error(path, load_heatmaps_by_block)

    def test_grids_of_one_size_are_read_in_one_call(self, tmp_path):
        path = tmp_path / "heatmaps.tsv"
        path.write_text(
            "i1\tA\t2\t64\n1 2\n3 4\n\n# x\ni1\tB\t1\t8\n5\n"
            "i2\tA\t2\t64\n6 7\n8 9\n",
            encoding="utf-8",
        )
        with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loadtxt:
            maps = load_heatmaps(path)
        assert loadtxt.call_count == 2
        assert [m.grid.tolist() for m in maps] == [
            [[1, 2], [3, 4]], [[5]], [[6, 7], [8, 9]]
        ]

    @pytest.mark.parametrize("edit", [
        "none", "\r\n", "\r", "no final newline", "between", "image id"
    ])
    def test_fixed_width_sizes_are_decoded_without_loadtxt(self, tmp_path, edit):
        text = ("i1\tA\t2\t64\n0.5000 1.2500\n9.0000 0.0625\ni1\tB\t1\t8\n5.0\n"
                "i2\tA\t2\t64\n0.1000 0.2000\n0.3000 0.4000\n")
        text = {
            "\r\n": text.replace("\n", "\r\n"),
            "\r": text.replace("\n", "\r"),
            "no final newline": text[:-1],
            "between": text.replace("\ni2", "\n\n# x\ni2"),
            "image id": text.replace("i1", "\u00efm"),
        }.get(edit, text)
        path = tmp_path / "heatmaps.tsv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loadtxt, \
                mock.patch.object(localization, "_fixed_width_grids",
                                  wraps=localization._fixed_width_grids) as decode:
            maps = load_heatmaps(path)
        assert decode.call_count == 2
        assert loadtxt.call_count == 0
        assert [m.grid.tolist() for m in maps] == [
            [[0.5, 1.25], [9.0, 0.0625]], [[5.0]], [[0.1, 0.2], [0.3, 0.4]]
        ]

    @settings(max_examples=400, deadline=None)
    @given(grid=fixed_width_grids())
    @example(grid=(1, 17, ["900719925474099.3"]))
    @example(grid=(2, 16, ["9007199254740.99 0000000000000.01",
                           "9999999999999.99 0000000000001.00"]))
    def test_byte_decoder_equals_float_of_each_token(self, grid):
        size, width, rows = grid
        text = f"i1\tMass\t{size}\t64\n" + "\n".join(rows) + "\n"
        decoded = localization._fixed_width_grids(
            localization._Lines(text.encode()), np.array([0]), size
        )
        if width > 16:  # more than 15 digits
            assert decoded is None
        else:
            expected = _parse_grid_rows(rows, size, 2)
            assert decoded[0].tobytes() == expected.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(text=edited_fixed_width_texts())
    def test_edited_fixed_width_text_reads_as_loadtxt_and_rows_read_it(
        self, tmp_path_factory, text
    ):
        path = tmp_path_factory.getbasetemp() / "edited_heatmaps.tsv"
        path.write_bytes(text.encode("utf-8"))
        fast = loaded_or_error(path)
        with mock.patch.object(localization, "_fixed_width_grids",
                               return_value=None):
            slow = loaded_or_error(path)
        assert fast == slow

    def test_bad_byte_in_a_grid_row_with_lone_cr_ends_names_its_line(
        self, tmp_path
    ):
        path = tmp_path / "heatmaps.tsv"
        path.write_bytes(b"i1\tMass\t2\t64\r0.5000 0.2500\r0.1250 \xff.0625\r")
        with pytest.raises(NotUtf8) as err:
            load_heatmaps(path)
        assert str(err.value) == f"{path}: line 3: not valid UTF-8"

    def test_peak_memory_is_about_the_file_and_the_grids(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "heatmaps.tsv"
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(200):
                for label in ("Mass", "Nodule", "Effusion"):
                    handle.write(f"img{i:05d}\t{label}\t32\t1024\n")
                    for row in rng.random((32, 32)):
                        handle.write(" ".join(f"{v:.4f}" for v in row) + "\n")
        load_heatmaps(path)  # first-use allocations are not the reader's
        tracemalloc.start()
        try:
            maps = load_heatmaps(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grids = sum(m.grid.nbytes for m in maps)
        # The file's bytes are 7/8 of the grids'; what is left is the
        # newline index, the headers and one chunk of rows.
        assert peak < 2 * grids

    def test_duplicate_heatmap_named_at_its_second_header(self, tmp_path):
        path = tmp_path / "heatmaps.tsv"
        path.write_text(
            "i1\tMass\t1\t64\n5\ni1\tNodule\t1\t64\n6\ni1\tMass\t1\t64\n7\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow) as err:
            load_heatmaps(path)
        assert str(err.value) == "row 5: duplicate heatmap for image 'i1', class 'Mass'"

    def test_bad_cell_before_a_duplicate_is_named_first(self, tmp_path):
        path = tmp_path / "heatmaps.tsv"
        path.write_text(
            "i1\tMass\t1\t64\n5\ni2\tMass\t1\t64\nx\ni1\tMass\t1\t64\n7\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow) as err:
            load_heatmaps(path)
        assert str(err.value) == "row 4: non-numeric score"

    @pytest.mark.parametrize("later, error", [
        ("1", "row 3: expected 2 scores per row"),
        ("1 x", "row 3: non-numeric score"),
        ("1 1", "row 2: non-finite score"),
    ])
    def test_short_or_non_numeric_row_is_named_before_a_non_finite_one(
        self, tmp_path, later, error
    ):
        # Within one block every row is parsed before any is checked for
        # non-finite scores; a map of another size reads on its own path.
        path = tmp_path / "heatmaps.tsv"
        path.write_text(
            f"i1\tMass\t2\t64\nnan 1\n{later}\ni2\tMass\t1\t64\n0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow) as err:
            load_heatmaps(path)
        assert str(err.value) == error

    def test_box_round_trip(self, tmp_path):
        boxes = [
            BBox("i1", "Mass", 10, 20, 30, 40, threshold=60),
            BBox("i1", "Nodule", 0, 0, 5, 5, threshold=180),
        ]
        buf = io.StringIO()
        write_boxes(boxes, buf, with_threshold=True)
        path = tmp_path / "boxes.tsv"
        path.write_text(buf.getvalue(), encoding="utf-8")
        assert list(load_boxes(path, with_threshold=True)) == boxes

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


class TestBoxTable:
    def test_iterates_and_indexes_as_boxes(self):
        boxes = [BBox("i1", "Mass", 10.0, 20.0, 30.0, 40.0, threshold=60),
                 BBox("i2", "Nodule", 0.5, 0.0, 5.0, 5.0, threshold=180)]
        table = BoxTable.from_boxes(boxes)
        assert len(table) == 2
        assert list(table) == boxes
        assert table[1] == boxes[1]
        assert table.thresholds.tolist() == [60, 180]
        assert table.xywh.shape == (2, 4)
        gt = BoxTable.from_boxes([BBox("i1", "Mass", 1.0, 2.0, 3.0, 4.0)])
        assert gt.thresholds is None
        assert list(gt) == [BBox("i1", "Mass", 1.0, 2.0, 3.0, 4.0)]
        assert len(BoxTable.from_boxes([])) == 0

    def test_reader_returns_columns(self, tmp_path):
        path = tmp_path / "dets.tsv"
        path.write_text("i1\tMass\t1\t2\t3\t4\t60\n# c\ni2\tA\t0.5\t0\t1e1\t1\t180\n")
        table = load_boxes(path, with_threshold=True)
        assert isinstance(table, BoxTable)
        assert table.image_ids == ["i1", "i2"]
        assert table.labels == ["Mass", "A"]
        assert table.xywh.dtype == np.float64
        assert table.xywh.tolist() == [[1, 2, 3, 4], [0.5, 0, 10, 1]]
        assert table.thresholds.tolist() == [60, 180]
        empty = tmp_path / "empty.tsv"
        empty.write_text("# no rows\n")
        assert load_boxes(empty).xywh.shape == (0, 4)
        assert len(load_boxes(empty, with_threshold=True).thresholds) == 0

    @pytest.mark.parametrize("row, error", [
        ("i1\tMass\t0\t0\t10\t10\t6.5", "row 1: non-integer detection threshold"),
        ("i1\tMass\tx\t0\t10\t10\t6.5", "row 1: non-numeric box geometry"),
        ("i1\tMass\tnan\t0\t10\t10\tx", "row 1: non-integer detection threshold"),
    ])
    def test_non_integer_threshold_is_named(self, tmp_path, row, error):
        path = tmp_path / "dets.tsv"
        path.write_text(f"{row}\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as err:
            load_boxes(path, with_threshold=True)
        assert str(err.value) == error

    def test_threshold_past_int64_is_kept(self, tmp_path):
        path = tmp_path / "dets.tsv"
        path.write_text(f"i1\tMass\t0\t0\t10\t10\t{10**30}\n", encoding="utf-8")
        (box,) = load_boxes(path, with_threshold=True)
        assert box.threshold == 10**30

    def test_first_bad_row_is_named_in_file_order(self, tmp_path):
        # A wrong field count after a bad cell is not the error reported.
        path = tmp_path / "dets.tsv"
        path.write_text("i1\tA\t0\t0\t10\t10\t60\ni1\tA\t0\t0\t0\t10\t60\n"
                        "i1\tA\t0\t0\t10\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as err:
            load_boxes(path, with_threshold=True)
        assert str(err.value) == "row 2: detection box needs positive w and h"

    @settings(max_examples=400, deadline=None)
    @given(case=box_files())
    def test_reader_equals_row_loop(self, tmp_path_factory, case):
        text, with_threshold = case
        path = tmp_path_factory.getbasetemp() / "mutated_boxes.tsv"
        path.write_text(text, encoding="utf-8")
        assert (boxes_or_error(load_boxes, path, with_threshold)
                == boxes_or_error(_load_boxes_by_row, path, with_threshold))

