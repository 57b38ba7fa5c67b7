"""Spans and counters around the public functions of each cxrlabel module.

The wrappers live here, not in the package: `Tracer.install` replaces a
function at every place that holds it (the defining module, every module
that imported it by name, and the dispatch tables `OVERLAP_MEASURES` and
`LOSSES`), and `Tracer.uninstall` puts the originals back. Spans are kept
in memory as (name, parent, start, end) and reduced to self times at the
end. Hot helpers called up to a million times per pass (`lemma`, edge
scans, box overlaps) get a counter only, since a span would cost more
than the call; even the counters slow `apply_rules` by half, so they are
installed only when `hot_counters` is set, on a pass whose times are not
used.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute) of every public function timed. The
# name before the dot is the layer; "<name>_s" is the metric.
SPANS = {
    "reports.load_corpus": [("cxrlabel.reports", "load_corpus")],
    "reports.load_deps": [("cxrlabel.reports", "load_dependency_file")],
    "reports.with_graphs": [("cxrlabel.reports", "Corpus.with_graphs")],
    "reports.sentences": [("cxrlabel.reports", "Corpus.sentences")],
    "lexicon.load": [("cxrlabel.lexicon", "load_lexicon")],
    "lexicon.match": [("cxrlabel.lexicon", "match_concepts")],
    "lexicon.merge": [("cxrlabel.lexicon", "merge_mention_sets")],
    "negation.load_rules": [("cxrlabel.negation", "load_rules")],
    "negation.propagate": [("cxrlabel.negation", "propagate_conjuncts")],
    "negation.apply_rules": [("cxrlabel.negation", "apply_rules")],
    "labeling.label_corpus": [("cxrlabel.labeling", "label_corpus")],
    "labeling.polarize": [("cxrlabel.labeling", "polarize_corpus")],
    "labeling.aggregate": [("cxrlabel.labeling", "label_report")],
    "labeling.write": [
        ("cxrlabel.labeling", "write_labels_tsv"),
        ("cxrlabel.labeling", "write_labels_wide_csv"),
    ],
    "labeling.read_labels": [("cxrlabel.labeling", "read_labels_wide_csv")],
    "pooling.lse_pool": [("cxrlabel.pooling", "lse_pool")],
    "pooling.loss": [
        ("cxrlabel.pooling", name) for name in ("cel", "wcel", "el", "hl")
    ],
    "localization.load_heatmaps": [("cxrlabel.localization", "load_heatmaps")],
    "localization.normalize": [("cxrlabel.localization", "normalize_heatmap")],
    "localization.regions": [("cxrlabel.localization", "connected_regions")],
    "localization.boxes": [("cxrlabel.localization", "boxes_from_heatmap")],
    "localization.load_boxes": [("cxrlabel.localization", "load_boxes")],
    "localization.write": [("cxrlabel.localization", "write_boxes")],
    "metrics.localization_eval": [("cxrlabel.metrics", "localization_eval")],
    "metrics.localization_sweep": [("cxrlabel.metrics", "localization_sweep")],
    "metrics.roc_auc": [("cxrlabel.metrics", "roc_auc")],
    "metrics.roc_points": [("cxrlabel.metrics", "roc_points")],
    "metrics.prf1": [("cxrlabel.metrics", "prf1")],
    "stats.label_counts": [("cxrlabel.stats", "label_counts")],
    "stats.cooccurrence": [("cxrlabel.stats", "cooccurrence_matrix")],
    "stats.patient_split": [("cxrlabel.stats", "patient_split")],
    "stats.write": [
        ("cxrlabel.stats", name)
        for name in ("write_counts_csv", "write_matrix_csv", "write_split_tsv")
    ],
    "cli.label": [("cxrlabel.cli", "cmd_label")],
    "cli.eval_nlp": [("cxrlabel.cli", "cmd_eval_nlp")],
    "cli.auc": [("cxrlabel.cli", "cmd_auc")],
    "cli.localize": [("cxrlabel.cli", "cmd_localize")],
    "cli.eval_loc": [("cxrlabel.cli", "cmd_eval_loc")],
    "cli.stats": [("cxrlabel.cli", "cmd_stats")],
    "cli.split": [("cxrlabel.cli", "cmd_split")],
}

# Counter name -> (module, attribute) of functions that are only counted.
COUNTED = {
    "reports.split_sentences_calls": [("cxrlabel.reports", "split_sentences")],
    "reports.edge_scans": [
        ("cxrlabel.reports", "DependencyGraph.out_edges"),
        ("cxrlabel.reports", "DependencyGraph.in_edges"),
    ],
    "negation.lemma_calls": [("cxrlabel.negation", "lemma")],
    "localization.overlap_calls": [
        ("cxrlabel.localization", "iou"),
        ("cxrlabel.localization", "iobb"),
    ],
}


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    name = attr
    if "." in attr:
        cls_name, name = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, name


class Tracer:
    """Records spans and counts while installed; `report` reduces them."""

    def __init__(self, hot_counters: bool = False):
        self.hot_counters = hot_counters
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []
        self._scanned = None  # (mention list, Counter of report ids)

    # --- wrappers ---

    def _span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Count hooks run after the span closed, so their cost is not in it.

    def _after_label_report(self, args, result):
        report, _, polarized = args[0], args[1], args[2]
        if self._scanned is None or self._scanned[0] is not polarized:
            owners = Counter(pm.mention.sentence_ref.report_id for pm in polarized)
            self._scanned = (polarized, owners)
        self.counts["labeling.mentions_scanned"] += len(polarized)
        self.counts["labeling.mentions_used"] += self._scanned[1][report.report_id]

    def _after_count(self, key):
        def hook(args, result):
            self.counts[key] += len(result)

        return hook

    def _after_roc_points(self, args, result):
        self.counts["metrics.roc_thresholds"] += len(set(args[0]))

    def _after_apply_rules(self, args, result):
        self.counts["negation.apply_rules_calls"] += 1

    def _after_lse_pool(self, args, result):
        self.counts["pooling.lse_pool_calls"] += 1

    # --- installation ---

    def _rebind(self, original, replacement):
        """Replace `original` wherever a cxrlabel module or table holds it."""
        import cxrlabel.localization
        import cxrlabel.pooling

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cxrlabel" and not mod_name.startswith("cxrlabel."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))
        for table in (cxrlabel.localization.OVERLAP_MEASURES, cxrlabel.pooling.LOSSES):
            for key, value in list(table.items()):
                if value is original:
                    table[key] = replacement
                    self._undo.append((table, key, original))

    def _patch(self, module: str, attr: str, make):
        owner, name = _resolve(module, attr)
        original = vars(owner)[name]
        replacement = make(original)
        if isinstance(owner, type):
            setattr(owner, name, replacement)
            self._undo.append((owner, name, original))
        else:
            self._rebind(original, replacement)

    def install(self):
        import cxrlabel.cli  # noqa: F401  (loads every module to patch)

        hooks = {
            "labeling.aggregate": self._after_label_report,
            "lexicon.match": self._after_count("lexicon.mentions"),
            "localization.regions": self._after_count("localization.regions"),
            "localization.boxes": self._after_count("localization.boxes"),
            "metrics.roc_points": self._after_roc_points,
            "negation.apply_rules": self._after_apply_rules,
            "pooling.lse_pool": self._after_lse_pool,
        }
        for name, targets in SPANS.items():
            for module, attr in targets:
                self._patch(
                    module, attr,
                    lambda fn, name=name: self._span(name, fn, hooks.get(name)),
                )
        for name, targets in COUNTED.items() if self.hot_counters else ():
            for module, attr in targets:
                self._patch(module, attr, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # --- reduction ---

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, _, start, end), children in zip(self.spans, child_time):
            totals[name] += (end - start) - children
        return dict(totals)

    def inclusive_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, _, start, end in self.spans:
            totals[name] += end - start
        return dict(totals)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(
                    json.dumps({"id": index, "parent": parent, "name": name,
                                "start": start, "end": end}) + "\n"
                )
