"""Mine disease labels from chest X-ray reports and score weak localization.

`import cxrlabel` runs none of the package's modules: each name of
`__all__` is imported from its module on its first read (PEP 562), so a
program that uses the report-mining names never runs the numeric layers.
"""

import importlib

# The module that defines each name of `__all__` but `__version__`.
_MODULE_OF = {
    name: f"cxrlabel.{module}"
    for module, names in {
        "errors": "CxrLabelError",
        "labeling": "CONFIG_X8 CONFIG_X14 LabelConfig LabelTable ReportLabels "
                    "Status get_config label_corpus label_report",
        "lexicon": "ConceptMention Lexicon default_lexicon load_lexicon "
                   "match_concepts merge_mention_sets",
        "localization": "BBox BoxTable Heatmap boxes_from_heatmap boxes_from_heatmaps "
                        "connected_regions iobb iou normalize_heatmap",
        "metrics": "localization_eval prf1 roc_auc",
        "negation": "Polarity PolarizedMention Rule RuleSet apply_rules default_rules "
                    "load_rules mention_head propagate_conjuncts",
        "pooling": "avg_pool cel compose_heatmaps el hl lse_pool max_pool wcel "
                   "wcel_gradient",
        "reports": "Corpus DependencyGraph RadiologyReport Sentence SentenceRef "
                   "load_corpus load_dependency_file parse_report_text split_sentences",
        "stats": "cooccurrence_matrix label_counts patient_split",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    """Each name of `__all__`, imported from its module on its first read
    and kept as a global, where later reads find it."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
