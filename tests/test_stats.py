"""Corpus label statistics and patient-level partitioning."""

import io
from collections import Counter

import numpy as np
import pytest

from cxrlabel.errors import EmptyCorpus, MalformedRecord
from cxrlabel.labeling import LabelConfig, LabelTable, ReportLabels, Status
from cxrlabel.stats import (
    DEFAULT_FRACTIONS,
    PARTITIONS,
    cooccurrence_matrix,
    label_counts,
    patient_split,
    write_counts_csv,
    write_matrix_csv,
    write_split_tsv,
)

THREE = LabelConfig("three", ("A", "B", "C"))


def rl(report_id, y):
    status = Status.TARGET_FINDINGS if any(y) else Status.NORMAL
    return ReportLabels(report_id, tuple(y), status)


LABELS = [
    rl("r1", (1, 0, 0)),
    rl("r2", (1, 1, 0)),
    rl("r3", (0, 1, 1)),
    rl("r4", (0, 0, 0)),
    rl("r5", (1, 1, 1)),
]


class TestLabelCounts:
    def test_totals_overlaps_normal(self):
        counts = label_counts(LABELS, THREE)
        assert counts.totals == {"A": 3, "B": 3, "C": 2}
        # overlap counts reports where the class co-occurs with another
        assert counts.overlaps == {"A": 2, "B": 3, "C": 2}
        assert counts.normal == 1

    def test_single_label_reports_do_not_overlap(self):
        counts = label_counts([rl("r1", (1, 0, 0))], THREE)
        assert counts.overlaps == {"A": 0, "B": 0, "C": 0}

    def test_matches_per_record_counting(self):
        rng = np.random.default_rng(7)
        config = LabelConfig("five", tuple("ABCDE"))
        records = [rl(f"r{i}", rng.integers(0, 2, size=5).tolist()) for i in range(60)]
        counts = label_counts(records, config)
        for index, cls in enumerate(config.classes):
            assert counts.totals[cls] == sum(r.y[index] for r in records)
            assert counts.overlaps[cls] == sum(
                r.y[index] for r in records if sum(r.y) >= 2
            )
        assert counts.normal == sum(r.status is Status.NORMAL for r in records)
        assert label_counts(LabelTable.from_records(records, config), config) == counts

    def test_repeated_class_name_sums_its_columns(self):
        config = LabelConfig("twice", ("A", "A", "B"))
        counts = label_counts([rl("r1", (1, 1, 0)), rl("r2", (0, 1, 0))], config)
        assert counts.totals == {"A": 3, "B": 0}
        assert counts.overlaps == {"A": 2, "B": 0}


class TestCooccurrence:
    def test_matches_brute_force_pair_counting(self):
        matrix = cooccurrence_matrix(LABELS, THREE)
        for a in range(3):
            for b in range(3):
                expected = sum(
                    1 for r in LABELS if r.y[a] and r.y[b]
                )
                assert matrix[a, b] == expected

    def test_diagonal_holds_totals(self):
        matrix = cooccurrence_matrix(LABELS, THREE)
        assert matrix.diagonal().tolist() == [3, 3, 2]

    def test_symmetric(self):
        matrix = cooccurrence_matrix(LABELS, THREE)
        assert np.array_equal(matrix, matrix.T)

    def test_random_agreement(self):
        rng = np.random.default_rng(2)
        config = LabelConfig("five", tuple("ABCDE"))
        records = [
            rl(f"r{i}", tuple(int(v) for v in rng.integers(0, 2, size=5)))
            for i in range(40)
        ]
        matrix = cooccurrence_matrix(records, config)
        for a in range(5):
            for b in range(5):
                expected = sum(1 for r in records if r.y[a] and r.y[b])
                assert matrix[a, b] == expected


class TestPatientSplit:
    PATIENTS = [(f"p{i:02d}", (f"p{i:02d}_img",)) for i in range(10)]

    def test_partitions_disjoint_and_exhaustive(self):
        split = patient_split(self.PATIENTS)
        assert sorted(split.patients) == [p for p, _ in self.PATIENTS]
        assert set(split.patients.values()) <= set(PARTITIONS)

    def test_fraction_sizes_within_one(self):
        split = patient_split(self.PATIENTS, seed=3)
        sizes = Counter(split.patients.values())
        for fraction, name in zip(DEFAULT_FRACTIONS, PARTITIONS):
            assert abs(sizes[name] - fraction * 10) <= 1

    def test_ten_patients_split_7_1_2(self):
        sizes = Counter(patient_split(self.PATIENTS).patients.values())
        assert (sizes["train"], sizes["val"], sizes["test"]) == (7, 1, 2)

    def test_seed_determinism(self):
        a = patient_split(self.PATIENTS, seed=5)
        b = patient_split(self.PATIENTS, seed=5)
        assert a.patients == b.patients
        assert a.images == b.images

    def test_input_order_irrelevant(self):
        a = patient_split(self.PATIENTS, seed=5)
        b = patient_split(list(reversed(self.PATIENTS)), seed=5)
        assert a.patients == b.patients

    def test_different_seeds_differ(self):
        outcomes = {
            tuple(sorted(patient_split(self.PATIENTS, seed=s).patients.items()))
            for s in range(8)
        }
        assert len(outcomes) > 1

    def test_images_inherit_patient_partition(self):
        patients = [("p1", ("a", "b")), ("p2", ("c",))]
        split = patient_split(patients, fractions=(0.5, 0.25, 0.25), seed=0)
        assert split.images["a"] == split.images["b"] == split.patients["p1"]
        assert split.images["c"] == split.patients["p2"]

    def test_all_images_grouped_with_their_patient(self):
        patients = [(f"p{i}", (f"p{i}a", f"p{i}b")) for i in range(12)]
        split = patient_split(patients, seed=9)
        for patient_id, image_ids in patients:
            for image_id in image_ids:
                assert split.images[image_id] == split.patients[patient_id]

    def test_validation(self):
        with pytest.raises(EmptyCorpus):
            patient_split([])
        with pytest.raises(MalformedRecord):
            patient_split(self.PATIENTS, fractions=(0.5, 0.5, 0.0))
        with pytest.raises(MalformedRecord):
            patient_split(self.PATIENTS, fractions=(0.5, 0.4, 0.3))
        with pytest.raises(MalformedRecord):
            patient_split([("p1", ()), ("p1", ())])


class TestExports:
    def test_counts_csv(self):
        counts = label_counts(LABELS, THREE)
        buf = io.StringIO()
        write_counts_csv(counts, THREE, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "metric,A,B,C,Normal"
        assert lines[1] == "total,3,3,2,1"
        assert lines[2] == "overlap,2,3,2,0"

    def test_matrix_csv(self):
        matrix = cooccurrence_matrix(LABELS, THREE)
        buf = io.StringIO()
        write_matrix_csv(matrix, THREE, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "class,A,B,C"
        assert lines[1] == "A,3,2,1"

    def test_split_tsv_sorted(self):
        split = patient_split([("pb", ("x",)), ("pa", ("y",))],
                              fractions=(0.5, 0.25, 0.25))
        buf = io.StringIO()
        write_split_tsv(split, buf)
        lines = buf.getvalue().splitlines()
        assert [line.split("\t")[0] for line in lines] == ["pa", "pb"]
