"""Deterministic benchmark inputs built from the fixtures in tests/data.

Each generator takes a seed and a size, writes the files the program
reads into a directory, and returns a description of what it wrote. The
description carries what the oracles need (for example which fixture
report each generated report copies); the program never sees it. The
same seed and size give byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

X8_CLASSES = (
    "Atelectasis",
    "Cardiomegaly",
    "Effusion",
    "Infiltration",
    "Mass",
    "Nodule",
    "Pneumonia",
    "Pneumothorax",
)

# Workload sizes. The label corpus is a whole number of copies of the
# 20-report fixture, so every seed does the same work in another order.
LABEL_COPIES = 100  # 2000 reports
LOCALIZE_IMAGES = 200
EVALUATE_ROWS = 5000

IMAGE_DIM = 1024
GRID = 32
MAPS_PER_IMAGE = 3
GT_SHARE = 0.6  # share of class maps that get a ground-truth box


@dataclass
class Inputs:
    """Paths of the generated files plus what the oracles need to know."""

    files: dict[str, Path]
    size: int  # reports, images or rows: the unit of the throughput metric
    props: dict[str, float] = field(default_factory=dict)
    truth: dict = field(default_factory=dict)


def _fixture_lines(path: Path) -> list[str]:
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]


def _fixture_parses(path: Path) -> dict[str, list[list[str]]]:
    """Parse blocks of the fixture dependency file, keyed by report id."""
    by_report: dict[str, list[list[str]]] = {}
    for block in path.read_text(encoding="utf-8").split("\n\n"):
        lines = block.strip("\n").split("\n")
        if not lines[0].startswith("#sent"):
            continue
        by_report.setdefault(lines[0].split("\t")[1], []).append(lines)
    return by_report


def _fresh_ids(rng: random.Random, prefix: str, n: int) -> list[str]:
    return [f"{prefix}{v:08x}" for v in rng.sample(range(16**8), n)]


def make_label(fixtures: Path, out: Path, seed: int, copies: int = LABEL_COPIES):
    """Copies of the fixture reports, parses and gold rows under fresh ids."""
    rng = random.Random(seed)
    reports = [line.split("\t") for line in _fixture_lines(fixtures / "labeled_corpus.tsv")]
    parses = _fixture_parses(fixtures / "labeled_deps.tsv")
    gold_lines = (fixtures / "gold_labels.csv").read_text(encoding="utf-8").splitlines()
    gold_header, gold_rows = gold_lines[0], {
        row.split(",", 1)[0]: row.split(",", 1)[1] for row in gold_lines[1:]
    }
    patients = sorted({fields[1] for fields in reports})

    n = copies * len(reports)
    report_ids = _fresh_ids(rng, "R", n)
    patient_ids = iter(_fresh_ids(rng, "P", copies * len(patients)))
    order = [(k, fields) for k in range(copies) for fields in reports]
    rng.shuffle(order)
    patient_of = {}
    source = {}
    corpus, deps, gold = [], [], [gold_header]
    for new_id, (k, fields) in zip(report_ids, order):
        src_id, src_patient = fields[0], fields[1]
        if (k, src_patient) not in patient_of:
            patient_of[(k, src_patient)] = next(patient_ids)
        source[new_id] = src_id
        corpus.append("\t".join([new_id, patient_of[(k, src_patient)], *fields[2:]]))
        for block in parses.get(src_id, []):
            header = block[0].split("\t")
            header[1] = new_id
            deps.append("\n".join(["\t".join(header), *block[1:]]))
        gold.append(f"{new_id},{gold_rows[src_id]}")

    out.mkdir(parents=True, exist_ok=True)
    files = {
        "corpus": out / "corpus.tsv",
        "deps": out / "deps.tsv",
        "gold": out / "gold.csv",
    }
    files["corpus"].write_text("\n".join(corpus) + "\n", encoding="utf-8")
    files["deps"].write_text("\n\n".join(deps) + "\n", encoding="utf-8")
    files["gold"].write_text("\n".join(gold) + "\n", encoding="utf-8")
    sentences = [tuple(row.split("\t")[1] for row in block[1:])
                 for src in parses.values() for block in src]
    props = {
        "reports": n,
        "sentences": copies * len(sentences),
        "distinct_sentence_share": len(set(sentences)) / (copies * len(sentences)),
    }
    return Inputs(files, n, props=props,
                  truth={"source": source, "copies": copies})


def _blob_grid(rng: np.random.Generator) -> tuple[np.ndarray, tuple[float, float, float]]:
    """A 32x32 map in (0, 1): low noise, one strong blob and, apart from
    it, a weak streak one cell wide along a diagonal. After normalization
    the blob yields one region at both box thresholds and the streak one
    region at the lower threshold only, joined through corners alone, so
    every map gives three detections (and every seed the same work) only
    when regions are 8-connected."""
    yy, xx = np.mgrid[0:GRID, 0:GRID]
    grid = rng.uniform(0.02, 0.08, size=(GRID, GRID))
    while True:
        cy, cx = rng.uniform(6, GRID - 6, size=2)
        wy, wx = rng.integers(2, GRID - 6, size=2)
        if (cy - wy - 2) ** 2 + (cx - wx - 2) ** 2 > 16**2:
            break
    sigma = rng.uniform(1.5, 3.0)
    peak = rng.uniform(0.6, 0.85)
    grid += peak * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
    step = 1 if rng.uniform() < 0.5 else -1
    for k in range(4):
        grid[wy + k, wx + 3 * (step < 0) + step * k] += peak * rng.uniform(0.4, 0.55)
    return np.minimum(grid, 0.98), (cy, cx, sigma)


def make_localize(out: Path, seed: int, images: int = LOCALIZE_IMAGES):
    """Heatmaps for a few classes per image; a fixed share of the maps,
    chosen by the seed, get a ground-truth box."""
    rng = np.random.default_rng(seed)
    cell = IMAGE_DIM / GRID
    maps = images * MAPS_PER_IMAGE
    has_gt = [False] * maps
    for k in rng.permutation(maps)[: round(GT_SHARE * maps)]:
        has_gt[int(k)] = True
    heat_lines, gt_lines = [], []
    k = 0
    for i in range(images):
        image_id = f"img{i:05d}"
        for cls in sorted(rng.choice(X8_CLASSES, size=MAPS_PER_IMAGE, replace=False)):
            grid, (cy, cx, sigma) = _blob_grid(rng)
            heat_lines.append(f"{image_id}\t{cls}\t{GRID}\t{IMAGE_DIM}")
            heat_lines.extend(" ".join(f"{v:.4f}" for v in row) for row in grid)
            if has_gt[k]:
                # Integer pixel box around the strong blob, jittered so some
                # detections miss at the stricter overlap thresholds.
                half = 2.2 * sigma * cell * rng.uniform(0.6, 1.4)
                px = (cx + 0.5 + rng.normal(0, 1.5)) * cell
                py = (cy + 0.5 + rng.normal(0, 1.5)) * cell
                x0 = int(np.clip(px - half, 0, IMAGE_DIM - 16))
                y0 = int(np.clip(py - half, 0, IMAGE_DIM - 16))
                x1 = int(np.clip(px + half, x0 + 16, IMAGE_DIM))
                y1 = int(np.clip(py + half, y0 + 16, IMAGE_DIM))
                gt_lines.append(f"{image_id}\t{cls}\t{x0}\t{y0}\t{x1 - x0}\t{y1 - y0}")
            k += 1

    out.mkdir(parents=True, exist_ok=True)
    files = {"heatmaps": out / "heatmaps.tsv", "gt": out / "gt.tsv"}
    files["heatmaps"].write_text("\n".join(heat_lines) + "\n", encoding="utf-8")
    files["gt"].write_text("\n".join(gt_lines) + "\n", encoding="utf-8")
    props = {"images": images, "maps": maps, "gt_boxes": len(gt_lines)}
    return Inputs(files, images, props=props, truth={"has_gt": has_gt})


# Per-class prevalence of the generated gold labels.
_PREVALENCE = (0.12, 0.08, 0.2, 0.25, 0.06, 0.1, 0.05, 0.04)


def make_evaluate(fixtures: Path, out: Path, seed: int, rows: int = EVALUATE_ROWS):
    """Gold and predicted label tables, per-class scores and a corpus."""
    rng = np.random.default_rng(seed)
    ids = _fresh_ids(random.Random(seed), "E", rows)
    gold_y = (rng.uniform(size=(rows, len(X8_CLASSES))) < _PREVALENCE).astype(int)
    flips = rng.uniform(size=gold_y.shape) < 0.05
    pred_y = np.where(flips, 1 - gold_y, gold_y)
    gold_other = rng.uniform(size=rows) < 0.3
    pred_other = np.where(rng.uniform(size=rows) < 0.1, ~gold_other, gold_other)
    # Scores lean towards the gold label; six decimals keep most distinct.
    scores = np.round(0.35 * gold_y + rng.uniform(0, 0.65, size=gold_y.shape), 6)

    def status(y, other):
        if y.any():
            return "TARGET_FINDINGS"
        return "OTHER_FINDINGS_ONLY" if other else "NORMAL"

    header = "report_id," + ",".join(X8_CLASSES) + ",status"
    gold = [header]
    pred = [header]
    score_lines = ["report_id," + ",".join(X8_CLASSES)]
    for i, rid in enumerate(ids):
        gold.append(f"{rid},{','.join(map(str, gold_y[i]))},{status(gold_y[i], gold_other[i])}")
        pred.append(f"{rid},{','.join(map(str, pred_y[i]))},{status(pred_y[i], pred_other[i])}")
        score_lines.append(f"{rid}," + ",".join(f"{v:.6f}" for v in scores[i]))

    # A corpus of the same size: fixture report texts under the table's ids,
    # one to four reports per patient.
    texts = [line.split("\t", 2)[2] for line in _fixture_lines(fixtures / "labeled_corpus.tsv")]
    corpus = []
    patients = 0
    i = 0
    while i < rows:
        take = int(rng.integers(1, 5))
        patient = f"Q{patients:06d}"
        patients += 1
        for rid in ids[i : i + take]:
            corpus.append(f"{rid}\t{patient}\t{texts[int(rng.integers(len(texts)))]}")
        i += take

    out.mkdir(parents=True, exist_ok=True)
    files = {
        "gold": out / "gold.csv",
        "pred": out / "pred.csv",
        "scores": out / "scores.csv",
        "corpus": out / "corpus.tsv",
    }
    files["gold"].write_text("\n".join(gold) + "\n", encoding="utf-8")
    files["pred"].write_text("\n".join(pred) + "\n", encoding="utf-8")
    files["scores"].write_text("\n".join(score_lines) + "\n", encoding="utf-8")
    files["corpus"].write_text("\n".join(corpus) + "\n", encoding="utf-8")
    distinct = np.mean([len(np.unique(scores[:, c])) for c in range(len(X8_CLASSES))])
    props = {"rows": rows, "distinct_scores": float(distinct), "patients": patients}
    return Inputs(files, rows, props=props)
