"""rweets: identify help-request tweets and categorize them by relief type.

The package is organized around a staged text-classification pipeline:
datasets (corpus) are cleaned (preprocess), turned into sparse n-gram
features optionally extended with rule-match bits (features, rules), fed to
from-scratch classifiers under stratified cross-validation (models, metrics),
and orchestrated end to end with cached intermediate artifacts (pipeline,
cli).

Importing the package imports none of its modules: each name below resolves
on first use, so a process pays only for the modules it reaches.
"""

import importlib

__version__ = "0.1.0"


def _lazy_names(owner: str, modules: dict):
    """A module `__getattr__` (PEP 562) for `owner` that resolves each name of
    `modules` (module -> space-separated names) to that module's object,
    importing the module on first use; and the set of those names."""
    where = {name: module for module, names in modules.items() for name in names.split()}

    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{__name__}.{where[name]}"), name)

    return __getattr__, frozenset(where)


__getattr__, _EXPORTS = _lazy_names(__name__, {
    "corpus": "BINARY CATEGORICAL Dataset LabelDomain RawTweet load_dataset save_dataset "
              "synth_corpus",
    "errors": "FormatError NotFittedError RweetsError StaleCacheError TrainingDivergedError "
              "ValidationError",
    "features": "FeatureConfig FeatureMatrix Vocabulary combo enumerate_combos",
    "metrics": "MetricsReport compute_report",
    "models": "LogisticRegression MultinomialNaiveBayes TrainConfig cross_validate "
              "stratified_kfold",
    "pipeline": "FeatureCache StagedClassifier run_series train_staged",
    "preprocess": "CleanCorpus CleanTweet PipelineConfig run_pipeline",
    "rules": "compile_patterns match_tweet rule_classify rule_features",
    "sparse": "SparseMatrix",
})


def __dir__():
    return sorted({*globals(), *_EXPORTS})
