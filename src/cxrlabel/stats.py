"""Corpus statistics and the patient-level train/val/test split.

Counts and co-occurrence work on labeled reports; the split shuffles
patients (never single images) so all images of a patient land in the
same partition.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from cxrlabel.errors import EmptyCorpus, MalformedRecord
from cxrlabel.lazy import _lazy_module, np, record

# Runs on its first attribute read (see `cxrlabel.lazy`), so that `split`,
# which reads no label table, never runs it.
labeling = _lazy_module("cxrlabel.labeling")

PARTITIONS = ("train", "val", "test")
DEFAULT_FRACTIONS = (0.7, 0.1, 0.2)


@record
class LabelCounts:
    totals: dict[str, int]  # reports with the class set
    overlaps: dict[str, int]  # of those, reports with >= 2 classes set
    normal: int  # reports with NORMAL status


def label_counts(
    labels: labeling.LabelTable | Iterable[labeling.ReportLabels],
    config: labeling.LabelConfig,
) -> LabelCounts:
    table = labeling.label_table(labels, config)
    overlapping = table.y.sum(axis=1) >= 2
    totals = dict(zip(config.classes, table.y.sum(axis=0).tolist()))
    overlaps = dict(zip(config.classes, table.y[overlapping].sum(axis=0).tolist()))
    normal = int(table.has_status(labeling.Status.NORMAL).sum())
    return LabelCounts(totals, overlaps, normal)


def cooccurrence_matrix(
    labels: labeling.LabelTable | Iterable[labeling.ReportLabels],
    config: labeling.LabelConfig,
) -> np.ndarray:
    """Symmetric C x C counts; diagonal holds per-class totals."""
    y = labeling.label_table(labels, config).y.astype(int)
    return y.T @ y


@record
class SplitAssignment:
    patients: dict[str, str]  # patient_id -> partition
    images: dict[str, str]  # image_id -> inherited partition
    seed: int
    fractions: tuple[float, float, float]


def patient_split(
    patients: Sequence[tuple[str, Sequence[str]]],
    fractions: tuple[float, float, float] = DEFAULT_FRACTIONS,
    seed: int = 0,
) -> SplitAssignment:
    """Seeded shuffle of patient ids, partitioned at the cumulative
    fraction boundaries floor(f1*n) and floor((f1+f2)*n)."""
    if not patients:
        raise EmptyCorpus("no patients to split")
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise MalformedRecord(f"fractions must be 3 positives, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise MalformedRecord(f"fractions must sum to 1, got {sum(fractions)}")
    ids = [patient_id for patient_id, _ in patients]
    if len(set(ids)) != len(ids):
        raise MalformedRecord("duplicate patient ids")

    # Sort before shuffling so the assignment depends only on the id set
    # and the seed, not on input order.
    shuffled = sorted(ids)
    rng = np.random.default_rng(seed)
    rng.shuffle(shuffled)
    n = len(shuffled)
    # The 1e-9 nudge keeps the floor exact when the float product lands a
    # hair under an integer (0.7 + 0.1 = 0.7999...).
    cut1 = int(np.floor(fractions[0] * n + 1e-9))
    cut2 = int(np.floor((fractions[0] + fractions[1]) * n + 1e-9))
    assignment: dict[str, str] = {}
    for i, patient_id in enumerate(shuffled):
        if i < cut1:
            assignment[patient_id] = "train"
        elif i < cut2:
            assignment[patient_id] = "val"
        else:
            assignment[patient_id] = "test"

    images: dict[str, str] = {}
    for patient_id, image_ids in patients:
        for image_id in image_ids:
            images[image_id] = assignment[patient_id]
    return SplitAssignment(assignment, images, seed, tuple(fractions))


# --- CSV/TSV exports ---

def write_counts_csv(counts: LabelCounts, config: labeling.LabelConfig, handle):
    columns = list(config.classes) + ["Normal"]
    handle.write("metric," + ",".join(columns) + "\n")
    totals = [str(counts.totals[c]) for c in config.classes] + [str(counts.normal)]
    overlaps = [str(counts.overlaps[c]) for c in config.classes] + ["0"]
    handle.write("total," + ",".join(totals) + "\n")
    handle.write("overlap," + ",".join(overlaps) + "\n")


def write_matrix_csv(matrix: np.ndarray, config: labeling.LabelConfig, handle):
    handle.write("class," + ",".join(config.classes) + "\n")
    for i, cls in enumerate(config.classes):
        handle.write(cls + "," + ",".join(str(int(v)) for v in matrix[i]) + "\n")


def write_split_tsv(split: SplitAssignment, handle):
    for patient_id in sorted(split.patients):
        handle.write(f"{patient_id}\t{split.patients[patient_id]}\n")
