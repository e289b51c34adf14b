"""rweets: identify help-request tweets and categorize them by relief type.

The package is organized around a staged text-classification pipeline:
datasets (corpus) are cleaned (preprocess), turned into sparse n-gram
features optionally extended with rule-match bits (features, rules), fed to
from-scratch classifiers under stratified cross-validation (models, metrics),
and orchestrated end to end with cached intermediate artifacts (pipeline,
cli).
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: E402,F401
    BINARY,
    CATEGORICAL,
    Dataset,
    LabelDomain,
    RawTweet,
    load_dataset,
    save_dataset,
    synth_corpus,
)
from .errors import (  # noqa: E402,F401
    FormatError,
    NotFittedError,
    RweetsError,
    StaleCacheError,
    TrainingDivergedError,
    ValidationError,
)
from .features import (  # noqa: E402,F401
    FeatureConfig,
    FeatureMatrix,
    Vocabulary,
    combo,
    enumerate_combos,
)
from .metrics import MetricsReport, compute_report  # noqa: E402,F401
from .models import (  # noqa: E402,F401
    LogisticRegression,
    MultinomialNaiveBayes,
    TrainConfig,
    cross_validate,
    stratified_kfold,
)
from .pipeline import (  # noqa: E402,F401
    FeatureCache,
    StagedClassifier,
    run_series,
    train_staged,
)
from .preprocess import CleanCorpus, CleanTweet, PipelineConfig, run_pipeline  # noqa: E402,F401
from .rules import compile_patterns, match_tweet, rule_classify, rule_features  # noqa: E402,F401
from .sparse import SparseMatrix  # noqa: E402,F401
