"""Acceptance suite: one check per shipped guarantee, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import time
from pathlib import Path

import numpy as np

from conftest import (
    RULE_EXAMPLES,
    auc_by_pairs,
    make_graph,
    make_sentence,
    mention_phrase,
    optimal_match_count,
)
from cxrlabel.labeling import get_config, label_all, read_labels_wide_csv
from cxrlabel.lexicon import default_lexicon, match_concepts
from cxrlabel.localization import (
    BBox,
    Heatmap,
    boxes_from_heatmap,
    iobb,
    iou,
)
from cxrlabel.metrics import (
    T_GRID_IOBB,
    localization_eval,
    prf1,
    roc_auc,
)
from cxrlabel.negation import (
    Polarity,
    apply_rules,
    default_rules,
    propagate_conjuncts,
)
from cxrlabel.pooling import (
    avg_pool,
    cel,
    compose_heatmaps,
    lse_pool,
    max_pool,
    wcel,
    wcel_gradient,
)
from cxrlabel.reports import (
    DependencyGraph,
    Edge,
    SentenceRef,
    load_corpus,
    load_dependency_file,
)
from cxrlabel.stats import cooccurrence_matrix, patient_split

DATA = Path(__file__).parent / "data"
LEXICON = default_lexicon()
RULES = default_rules()


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_coordination_negation_fixture():
    sentence = make_sentence(
        "clear of focal airspace disease, pneumothorax, or pleural effusion"
    )
    graph = make_graph(sentence, [
        (1, 5, "prep_of"),
        (5, 3, "amod"),
        (5, 4, "nn"),
        (5, 7, "conj_or"),
        (5, 11, "conj_or"),
        (11, 10, "amod"),
        (1, 7, "prep_of"),   # conjunct-propagated
        (1, 11, "prep_of"),  # conjunct-propagated
    ])
    mentions = match_concepts(sentence, LEXICON)
    started = time.perf_counter()
    polarized = apply_rules(graph, mentions, RULES)
    elapsed = time.perf_counter() - started
    negated = [
        p for p in polarized
        if p.polarity is Polarity.NEGATED and p.matched_rule == "n3"
    ]
    ok = len(polarized) == 3 and len(negated) == 3 and elapsed < 1.0
    _verdict(
        "coordination negation fixture",
        ok,
        f"{len(negated)}/3 mentions negated via n3 in {elapsed * 1e3:.1f} ms",
    )


def test_rule_example_sentences():
    hits = 0
    failures = []
    for rule_id, text, edges, phrase, expected in RULE_EXAMPLES:
        sentence = make_sentence(text)
        graph = make_graph(sentence, edges)
        polarized = apply_rules(graph, match_concepts(sentence, LEXICON), RULES)
        cited = [
            p for p in polarized
            if mention_phrase(sentence, p.mention) == phrase
        ]
        if (
            len(cited) == 1
            and cited[0].polarity.value == expected
            and cited[0].matched_rule == rule_id
        ):
            hits += 1
        else:
            failures.append(rule_id)
    _verdict(
        "rule example sentences",
        hits == len(RULE_EXAMPLES),
        f"{hits}/{len(RULE_EXAMPLES)} rules fire as tabulated"
        + (f", failing: {failures}" if failures else ""),
    )


def _closure_fixpoint(edges: set[Edge]) -> set[Edge]:
    current = set(edges)
    while True:
        added = set(current)
        for head, conjunct, label in current:
            if label.startswith("conj"):
                continue
            for governor, other, other_label in current:
                if (
                    governor == conjunct
                    and other_label.startswith("conj")
                    and head != other
                ):
                    added.add(Edge(head, other, label))
        if added == current:
            return current
        current = added


def test_conjunct_closure_matches_fixpoint():
    rng = np.random.default_rng(3)
    labels = ("neg", "amod", "prep_of", "dobj", "nn", "conj_and", "conj_or")
    agreements = 0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        edges = set()
        for _ in range(int(rng.integers(0, 2 * n))):
            head = int(rng.integers(1, n + 1))
            dependent = int(rng.integers(1, n + 1))
            if head == dependent:
                continue
            edges.add(Edge(head, dependent, labels[rng.integers(len(labels))]))
        graph = DependencyGraph(
            sentence_ref=SentenceRef("r1", "findings", 0),
            n_tokens=n,
            surfaces=tuple(f"t{i}" for i in range(1, n + 1)),
            edges=tuple(sorted(edges)),
        )
        if set(propagate_conjuncts(graph).edges) == _closure_fixpoint(edges):
            agreements += 1
    _verdict(
        "conjunct closure equals fixpoint oracle",
        agreements == 100,
        f"{agreements}/100 random graphs agree exactly",
    )


def test_lse_stability_and_limits():
    rng = np.random.default_rng(4)
    grid = (0.1, 0.5, 1.0, 5.0, 8.0, 10.0, 12.0)
    stable_ok = monotone_ok = tiny_ok = True
    for _ in range(1000):
        region = rng.uniform(-10, 10, size=int(rng.integers(1, 65)))
        previous = None
        for r in grid:
            naive = float(np.log(np.mean(np.exp(r * region))) / r)
            value = lse_pool(region, r)
            if abs(value - naive) > 1e-9 * max(1.0, abs(naive)):
                stable_ok = False
            if previous is not None and value < previous - 1e-12:
                monotone_ok = False
            previous = value
        if abs(lse_pool(region, 1e-6) - avg_pool(region)) > 1e-3:
            tiny_ok = False
    sharp_ok = True
    for _ in range(1000):
        pair = rng.uniform(0, 10, size=2)
        if abs(lse_pool(pair, 100.0) - max_pool(pair)) > 1e-2:
            sharp_ok = False
    ok = stable_ok and monotone_ok and tiny_ok and sharp_ok
    _verdict(
        "lse pooling stability and limits",
        ok,
        "stable=%s monotone=%s r->0=%s r=100=%s over 1000 regions"
        % (stable_ok, monotone_ok, tiny_ok, sharp_ok),
    )


def test_balanced_loss_values_and_gradient():
    hand_ok = abs(wcel([1, 0], [0.5, 0.5]) - 4 * np.log(2)) < 1e-12
    rng = np.random.default_rng(5)
    double_ok = True
    for _ in range(100):
        half = int(rng.integers(1, 11))
        y = np.array([1] * half + [0] * half)
        rng.shuffle(y)
        f = rng.uniform(0.05, 0.95, size=2 * half)
        if abs(wcel(y, f) - 2 * cel(y, f)) > 1e-12:
            double_ok = False
    grad_ok = True
    h = 1e-5
    for _ in range(100):
        size = int(rng.integers(2, 17))
        y = rng.integers(0, 2, size=size)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        f = rng.uniform(0.1, 0.9, size=size)
        grad = wcel_gradient(y, f)
        for i in range(size):
            up, down = f.copy(), f.copy()
            up[i] += h
            down[i] -= h
            fd = (wcel(y, up) - wcel(y, down)) / (2 * h)
            if abs(fd - grad[i]) > 1e-5 * max(1.0, abs(fd)):
                grad_ok = False
    ok = hand_ok and double_ok and grad_ok
    _verdict(
        "balanced loss values and gradient",
        ok,
        "4ln2=%s doubling=%s gradient-vs-fd=%s over 100 batches"
        % (hand_ok, double_ok, grad_ok),
    )


def test_heatmap_composition_shape_and_linearity():
    rng = np.random.default_rng(6)
    act1 = rng.normal(size=(32, 32, 2048))
    act2 = rng.normal(size=(32, 32, 2048))
    weights = rng.normal(size=(2048, 8))
    out = compose_heatmaps(act1, weights)
    shape_ok = out.shape == (32, 32, 8)
    gap = np.max(np.abs(
        compose_heatmaps(act1 + act2, weights)
        - compose_heatmaps(act1, weights)
        - compose_heatmaps(act2, weights)
    ))
    ok = shape_ok and gap < 1e-10
    _verdict(
        "heatmap composition shape and linearity",
        ok,
        f"shape={out.shape} linearity gap={gap:.2e}",
    )


def _pixel_cells(box: BBox) -> set[tuple[int, int]]:
    x, y, w, h = int(box.x), int(box.y), int(box.w), int(box.h)
    return {(i, j) for i in range(x, x + w) for j in range(y, y + h)}


def test_overlap_measures_match_pixel_counting():
    rng = np.random.default_rng(7)
    exact = 0
    for _ in range(1000):
        gt, det = (
            BBox("i", "c",
                 float(rng.integers(0, 41)), float(rng.integers(0, 41)),
                 float(rng.integers(1, 31)), float(rng.integers(1, 31)))
            for _ in range(2)
        )
        gt_cells, det_cells = _pixel_cells(gt), _pixel_cells(det)
        inter = len(gt_cells & det_cells)
        if (
            iou(gt, det) == inter / len(gt_cells | det_cells)
            and iobb(gt, det) == inter / len(det_cells)
        ):
            exact += 1
    a = BBox("i", "c", 0, 0, 10, 10)
    b = BBox("i", "c", 5, 0, 10, 10)
    derived_ok = iou(a, b) == 1 / 3 and iobb(a, b) == 0.5
    ok = exact == 1000 and derived_ok
    _verdict(
        "overlap measures match pixel counting",
        ok,
        f"{exact}/1000 box pairs exact, derived (1/3, 0.5)={derived_ok}",
    )


def test_box_generation_properties():
    constant = Heatmap("i", "c", np.full((8, 8), 3.7), 256.0)
    constant_ok = boxes_from_heatmap(constant, (60, 180)) == []

    rng = np.random.default_rng(5)
    peak_ok = True
    size = 16
    yy, xx = np.mgrid[0:size, 0:size]
    for _ in range(100):
        cy, cx = rng.uniform(3, size - 3, size=2)
        width = rng.uniform(1.5, 5.0)
        grid = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width**2))
        heatmap = Heatmap("i", "c", grid, 512.0)
        factor = 512.0 / size
        r_peak, c_peak = np.unravel_index(np.argmax(grid), grid.shape)
        px, py = (c_peak + 0.5) * factor, (r_peak + 0.5) * factor
        boxes = boxes_from_heatmap(heatmap, (60, 180))
        if not boxes:
            peak_ok = False
        for box in boxes:
            if not (
                box.x <= px <= box.x + box.w and box.y <= py <= box.y + box.h
            ):
                peak_ok = False

    rng = np.random.default_rng(6)
    nesting_ok = True
    for _ in range(100):
        grid = np.zeros((size, size))
        for _ in range(int(rng.integers(2, 5))):
            cy, cx = rng.uniform(2, size - 2, size=2)
            width = rng.uniform(1.0, 4.0)
            grid += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width**2))
        boxes = boxes_from_heatmap(Heatmap("i", "c", grid, 1024.0), (60, 180))
        outer = [b for b in boxes if b.threshold == 60]
        for inner in (b for b in boxes if b.threshold == 180):
            if not any(
                o.x - 1e-9 <= inner.x
                and o.y - 1e-9 <= inner.y
                and inner.x + inner.w <= o.x + o.w + 1e-9
                and inner.y + inner.h <= o.y + o.h + 1e-9
                for o in outer
            ):
                nesting_ok = False
    ok = constant_ok and peak_ok and nesting_ok
    _verdict(
        "box generation properties",
        ok,
        "constant=%s peak-containment=%s nesting=%s over 100 heatmaps each"
        % (constant_ok, peak_ok, nesting_ok),
    )


def _random_boxes(rng, count, image="i", cls="c"):
    return [
        BBox(image, cls,
             float(rng.integers(0, 41)), float(rng.integers(0, 41)),
             float(rng.integers(5, 31)), float(rng.integers(5, 31)))
        for _ in range(count)
    ]


def test_greedy_matching_and_threshold_sweep():
    rng = np.random.default_rng(1)
    cases = agreements = 0
    for _ in range(100):
        gts = _random_boxes(rng, int(rng.integers(0, 4)))
        dets = _random_boxes(rng, int(rng.integers(0, 4)))
        for mode, measure in (("iou", iou), ("iobb", iobb)):
            for t in (0.1, 0.25, 0.5):
                cases += 1
                result = localization_eval(dets, gts, t, mode)
                greedy = result.matched.get("c", 0)
                if greedy == optimal_match_count(gts, dets, t, measure):
                    agreements += 1

    violations = 0
    for _ in range(40):
        gts, dets = [], []
        for image in ("i1", "i2", "i3"):
            gts.extend(_random_boxes(rng, int(rng.integers(0, 4)), image))
            dets.extend(_random_boxes(rng, int(rng.integers(0, 4)), image))
        prev_acc = prev_afp = None
        for t in T_GRID_IOBB:
            result = localization_eval(dets, gts, t, "iobb", n_images=3)
            acc = result.acc.get("c")
            afp = result.afp.get("c", 0.0)
            if prev_acc is not None and acc is not None and acc > prev_acc + 1e-12:
                violations += 1
            if prev_afp is not None and afp < prev_afp - 1e-12:
                violations += 1
            if acc is not None:
                prev_acc = acc
            prev_afp = afp
    ok = agreements == cases and violations == 0
    _verdict(
        "greedy matching and threshold sweep",
        ok,
        f"{agreements}/{cases} match exhaustive optimum, "
        f"{violations} monotonicity violations across the sweep grid",
    )


def test_auc_oracle_and_invariance():
    canonical_ok = (
        roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        and roc_auc([0.5, 0.5, 0.5], [1, 0, 1]) == 0.5
        and roc_auc([0.1, 0.9], [1, 0]) == 0.0
    )
    rng = np.random.default_rng(8)
    oracle_ok = invariant_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(size=n), 1)  # quantized to force ties
        value = roc_auc(scores, labels)
        if abs(value - auc_by_pairs(scores, labels)) > 1e-12:
            oracle_ok = False
        if (
            roc_auc(2.0 * scores + 3.0, labels) != value
            or roc_auc(np.exp(scores), labels) != value
        ):
            invariant_ok = False
    ok = canonical_ok and oracle_ok and invariant_ok
    _verdict(
        "auc pair oracle and invariance",
        ok,
        "canonical=%s pair-oracle=%s monotone-invariant=%s over 1000 sets"
        % (canonical_ok, oracle_ok, invariant_ok),
    )


EXPECTED_LABELS = {
    "r01": (("Effusion",), "TARGET_FINDINGS"),
    "r02": ((), "NORMAL"),
    "r03": (("Cardiomegaly", "Effusion"), "TARGET_FINDINGS"),
    "r04": (("Pneumonia",), "TARGET_FINDINGS"),
    "r05": ((), "NORMAL"),
    "r06": (("Atelectasis",), "TARGET_FINDINGS"),
    "r07": ((), "OTHER_FINDINGS_ONLY"),
    "r08": (("Mass",), "TARGET_FINDINGS"),
    "r09": ((), "NORMAL"),
    "r10": (("Nodule",), "TARGET_FINDINGS"),
    "r11": (("Infiltration",), "TARGET_FINDINGS"),
    "r12": ((), "NORMAL"),
    "r13": (("Atelectasis", "Pneumonia"), "TARGET_FINDINGS"),
    "r14": ((), "OTHER_FINDINGS_ONLY"),
    "r15": (("Cardiomegaly",), "TARGET_FINDINGS"),
    "r16": ((), "NORMAL"),
    "r17": (("Atelectasis", "Effusion"), "TARGET_FINDINGS"),
    "r18": ((), "NORMAL"),
    "r19": ((), "NORMAL"),
    "r20": ((), "NORMAL"),
}

# Hand-tabulated (tp, fp, fn) of the fixture corpus against its gold CSV.
EXPECTED_COUNTS = {
    "Atelectasis": (3, 0, 0),
    "Cardiomegaly": (2, 0, 0),
    "Effusion": (2, 1, 1),
    "Infiltration": (1, 0, 0),
    "Mass": (1, 0, 0),
    "Nodule": (1, 0, 0),
    "Pneumonia": (1, 1, 0),
    "Pneumothorax": (0, 0, 1),
    "Normal": (5, 3, 0),
    "Total": (16, 5, 2),
}


def test_corpus_labeling_reproduces_hand_scores():
    corpus = load_corpus(DATA / "labeled_corpus.tsv").with_graphs(
        load_dependency_file(DATA / "labeled_deps.tsv")
    )
    config = get_config("x8")
    predicted = label_all(corpus, LEXICON, RULES, config)
    label_hits = sum(
        (tuple(record.positive_classes(config)), record.status.name)
        == EXPECTED_LABELS[record.report_id]
        for record in predicted
    )
    gold, _ = read_labels_wide_csv(DATA / "gold_labels.csv", config)
    result = prf1(predicted, gold, config)
    row_hits = sum(
        (score.tp, score.fp, score.fn) == EXPECTED_COUNTS[name]
        for name, score in result.rows()
    )
    ok = label_hits == 20 and row_hits == len(EXPECTED_COUNTS)
    _verdict(
        "corpus labeling reproduces hand scores",
        ok,
        f"{label_hits}/20 reports labeled as tabulated, "
        f"{row_hits}/{len(EXPECTED_COUNTS)} score rows exact",
    )


def test_cooccurrence_and_patient_split():
    from cxrlabel.labeling import LabelConfig, ReportLabels, Status

    config = LabelConfig("toy", ("A", "B", "C", "D"))
    rng = np.random.default_rng(9)
    labels = []
    for i in range(60):
        y = tuple(int(v) for v in rng.uniform(size=4) < 0.4)
        status = Status.TARGET_FINDINGS if any(y) else Status.NORMAL
        labels.append(ReportLabels(f"r{i:02d}", y, status))
    matrix = cooccurrence_matrix(labels, config)
    brute = np.zeros((4, 4), dtype=int)
    for record in labels:
        for i in range(4):
            for j in range(4):
                if i == j:
                    brute[i, j] += record.y[i]
                elif record.y[i] and record.y[j]:
                    brute[i, j] += 1
    matrix_ok = np.array_equal(matrix, brute)

    split_ok = True
    for n in (5, 10, 23, 40):
        patients = [(f"p{i:03d}", [f"im{i}a", f"im{i}b"]) for i in range(n)]
        split = patient_split(patients, seed=11)
        again = patient_split(list(reversed(patients)), seed=11)
        if split.patients != again.patients:
            split_ok = False
        if sorted(split.patients) != [pid for pid, _ in patients]:
            split_ok = False
        for part, fraction in (("train", 0.7), ("val", 0.1), ("test", 0.2)):
            count = sum(1 for v in split.patients.values() if v == part)
            if abs(count - n * fraction) > 1.0:
                split_ok = False
    ok = matrix_ok and split_ok
    _verdict(
        "cooccurrence and patient split",
        ok,
        "matrix-vs-bruteforce=%s split disjoint/exhaustive/balanced=%s"
        % (matrix_ok, split_ok),
    )
