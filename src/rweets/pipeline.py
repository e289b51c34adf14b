"""Two-stage orchestration: identify rweets, filter the predicted requests,
then categorize them by relief type, reusing cached feature matrices.

Training and inference are deliberately separated: train_staged fits the
identifier on a binary dataset and the categorizer on a categorical dataset;
run_series applies both to any input dataset. The categorizer is trained on
gold rweets but sees stage-1 PREDICTED rweets at inference, an intentional
train/serve skew inherited from the staged design.
"""

import json
from dataclasses import dataclass
from pathlib import Path

from .corpus import BINARY, CATEGORICAL, RWEET, Dataset, LabelDomain
from .digest import atomic_write_text, combine_digests
from .errors import FormatError, StaleCacheError, ValidationError
from .features import (
    FeatureConfig,
    FeatureMatrix,
    Vocabulary,
    featurize_tokens,
    load_matrix,
    save_matrix,
)
from .models import load_model, make_classifier, save_model
from .preprocess import CleanCorpus, PipelineConfig, run_pipeline
from .rules import rule_block_for_ids


def featurize_corpus(
    corpus: CleanCorpus,
    config: FeatureConfig,
    raw_texts=None,
    vocabulary: Vocabulary | None = None,
    counts_only: bool = False,
) -> FeatureMatrix:
    """Featurize a cleaned corpus. `raw_texts` may be a Dataset or an
    id -> text mapping; it is required when rule features are appended,
    because rules evaluate original tweets."""
    rule_block = None
    if config.append_rules:
        if raw_texts is None:
            raise ValidationError("rule features need the original tweet texts")
        if isinstance(raw_texts, Dataset):
            raw_texts = raw_texts.texts_by_id()
        rule_block = rule_block_for_ids(corpus.ids(), raw_texts)
    return featurize_tokens(
        corpus.token_lists(),
        corpus.ids(),
        config,
        vocab=vocabulary,
        rule_block=rule_block,
        counts_only=counts_only,
    )


class FeatureCache:
    """Disk cache of feature matrices keyed by content digests.

    get_or_build loads the artifact when the key exists (a hit) and
    otherwise invokes the builder and persists its result. `built` counts
    actual featurization runs, so tests can assert warm reruns recompute
    nothing.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.built = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.spmat"

    def get_or_build(self, key: str, config: FeatureConfig, builder) -> FeatureMatrix:
        path = self.path_for(key)
        if path.exists():
            fm = load_matrix(path, config)
            self.hits += 1
            return fm
        self.misses += 1
        fm = builder()
        self.built += 1
        save_matrix(fm, path)
        return fm


@dataclass(frozen=True)
class StagedClassifier:
    identifier: object
    identifier_vocab: Vocabulary
    categorizer: object
    categorizer_vocab: Vocabulary
    feature_config: FeatureConfig
    pipeline_config: PipelineConfig
    binary_domain: LabelDomain = BINARY
    category_domain: LabelDomain = CATEGORICAL


@dataclass(frozen=True)
class CategorizedTweet:
    id: str
    text: str
    stage1: str
    stage2: str | None = None

    def __post_init__(self):
        if (self.stage2 is not None) != (self.stage1 == RWEET):
            raise ValidationError(
                "stage-2 label must be present exactly when stage 1 predicts rweet"
            )


def train_staged(
    d1: Dataset,
    d2: Dataset,
    feature_config: FeatureConfig,
    train_config=None,
    pipeline_config: PipelineConfig | None = None,
    classifier: str = "logreg",
    alpha: float = 1.0,
):
    """Fit the binary identifier on d1 and the category classifier on d2
    under one shared feature configuration.

    Returns (StagedClassifier, stage reports) where reports carry the
    cleaning summaries for both datasets.
    """
    if d1.domain.name != BINARY.name:
        raise ValidationError("stage-1 dataset must use the binary domain")
    if d2.domain.name != CATEGORICAL.name:
        raise ValidationError("stage-2 dataset must use the categorical domain")
    d1.require_labeled()
    d2.require_labeled()
    pipeline_config = pipeline_config or PipelineConfig()

    clean1, report1 = run_pipeline(d1, pipeline_config)
    clean2, report2 = run_pipeline(d2, pipeline_config)

    def fit_stage(clean, dataset, domain):
        clf = make_classifier(classifier, train_config, alpha)
        counts_only = getattr(clf, "input_kind", "weighted") == "counts"
        fm = featurize_corpus(clean, feature_config, dataset, counts_only=counts_only)
        clf.fit(fm.matrix, [tw.label for tw in clean], classes=domain.labels)
        return clf, fm.vocab

    identifier, vocab1 = fit_stage(clean1, d1, BINARY)
    categorizer, vocab2 = fit_stage(clean2, d2, CATEGORICAL)
    staged = StagedClassifier(
        identifier=identifier,
        identifier_vocab=vocab1,
        categorizer=categorizer,
        categorizer_vocab=vocab2,
        feature_config=feature_config,
        pipeline_config=pipeline_config,
    )
    return staged, (report1, report2)


def run_series(
    dataset: Dataset,
    staged: StagedClassifier,
    cache: FeatureCache | None = None,
) -> list[CategorizedTweet]:
    """Predict stage-1 labels for every cleaned tweet, then stage-2 labels
    for the predicted rweets. Output order follows the cleaned corpus.

    Stage-2 rows are chosen by position in the cleaned corpus (ids are
    unique, so this is the same as choosing them by id). The 18 rules run at
    most once per cleaned tweet per call: building stage 1 evaluates them
    for every cleaned row and building stage 2 reuses those bits for its
    rows; when stage 1 is a cache hit, stage 2 evaluates only its own rows,
    and a full cache hit evaluates none.
    """
    clean, _ = run_pipeline(dataset, staged.pipeline_config)
    texts = dataset.texts_by_id()
    ids = clean.ids()
    config = staged.feature_config
    counts_only = getattr(staged.identifier, "input_kind", "weighted") == "counts"
    all_rules = None  # the rule block of every cleaned row, once evaluated

    def rules_for(rows):
        nonlocal all_rules
        if all_rules is not None:
            return all_rules[rows]
        block = rule_block_for_ids([ids[i] for i in rows], texts)
        if len(rows) == len(ids):
            all_rules = block
        return block

    def featurize(stage_tag: str, rows, vocab: Vocabulary) -> FeatureMatrix:
        corpus = CleanCorpus(tuple(clean.tweets[i] for i in rows), clean.config_digest)
        # the key covers exactly the rows being featurized, so stage 2 stays
        # sound even though its row set depends on stage-1 predictions
        key = combine_digests(config.digest, vocab.digest, corpus.content_digest(), stage_tag)

        def builder():
            return featurize_tokens(
                corpus.token_lists(),
                corpus.ids(),
                config,
                vocab=vocab,
                rule_block=rules_for(rows) if config.append_rules else None,
                counts_only=counts_only,
            )

        if cache is None:
            return builder()
        return cache.get_or_build(key, config, builder)

    fm1 = featurize("stage1", range(len(ids)), staged.identifier_vocab)
    stage1 = staged.identifier.predict(fm1.matrix)

    keep = [i for i, label in enumerate(stage1) if label == RWEET]
    stage2_by_row: dict[int, str] = {}
    if keep:
        fm2 = featurize("stage2", keep, staged.categorizer_vocab)
        stage2_by_row = dict(zip(keep, staged.categorizer.predict(fm2.matrix)))

    return [
        CategorizedTweet(
            id=tweet_id, text=texts[tweet_id], stage1=label, stage2=stage2_by_row.get(i)
        )
        for i, (tweet_id, label) in enumerate(zip(ids, stage1))
    ]


def save_series_output(results, path) -> None:
    lines = []
    for item in results:
        record = {"id": item.id, "text": item.text, "stage1": item.stage1}
        if item.stage2 is not None:
            record["stage2"] = item.stage2
        lines.append(json.dumps(record, ensure_ascii=False))
    atomic_write_text(path, "".join(line + "\n" for line in lines))


# --- staged-model persistence -----------------------------------------------

_VOCAB_MAGIC = "VOCAB v1"


def _save_vocab(vocab: Vocabulary, path) -> None:
    lo, hi = vocab.ngram_range
    lines = [f"{_VOCAB_MAGIC} {len(vocab)} {vocab.n_docs} {lo} {hi}"]
    for i, term in enumerate(vocab.terms):
        lines.append(f"{i}\t{term}\t{vocab.doc_freqs[i]}")
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def _load_vocab(path) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(" ")
        if len(header) != 6 or " ".join(header[:2]) != _VOCAB_MAGIC:
            raise FormatError(f"{path}: bad vocabulary header")
        n_terms, n_docs, lo, hi = (int(x) for x in header[2:])
        terms, dfs = [], []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            index_text, term, df = line.split("\t")
            if int(index_text) != len(terms):
                raise FormatError(f"{path}: vocabulary indices out of order")
            terms.append(term)
            dfs.append(int(df))
    if len(terms) != n_terms:
        raise FormatError(f"{path}: expected {n_terms} terms, found {len(terms)}")
    return Vocabulary(
        terms=tuple(terms), ngram_range=(lo, hi), doc_freqs=tuple(dfs), n_docs=n_docs
    )


def save_staged(staged: StagedClassifier, directory) -> None:
    """Persist a staged classifier as a directory of model/vocab files plus
    a JSON manifest carrying the configuration digests."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_model(staged.identifier, directory / "identifier.model")
    save_model(staged.categorizer, directory / "categorizer.model")
    _save_vocab(staged.identifier_vocab, directory / "identifier.vocab")
    _save_vocab(staged.categorizer_vocab, directory / "categorizer.vocab")
    manifest = {
        "feature_config": {
            "vectorizer": staged.feature_config.vectorizer,
            "ngram_range": list(staged.feature_config.ngram_range),
            "append_rules": staged.feature_config.append_rules,
            "min_df": staged.feature_config.min_df,
            "max_df": staged.feature_config.max_df,
            "l2_normalize": staged.feature_config.l2_normalize,
        },
        "feature_digest": staged.feature_config.digest,
        "pipeline_config": {
            "ops": list(staged.pipeline_config.ops),
            "stopword_list_id": staged.pipeline_config.stopword_list_id,
            "english_threshold": staged.pipeline_config.english_threshold,
            "min_tokens": staged.pipeline_config.min_tokens,
        },
        "pipeline_digest": staged.pipeline_config.digest,
    }
    atomic_write_text(
        directory / "staged.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def load_staged(directory) -> StagedClassifier:
    directory = Path(directory)
    manifest_path = directory / "staged.json"
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    fc = manifest["feature_config"]
    feature_config = FeatureConfig(
        vectorizer=fc["vectorizer"],
        ngram_range=tuple(fc["ngram_range"]),
        append_rules=fc["append_rules"],
        min_df=fc["min_df"],
        max_df=fc["max_df"],
        l2_normalize=fc["l2_normalize"],
    )
    if feature_config.digest != manifest["feature_digest"]:
        raise StaleCacheError(f"{manifest_path}: feature config digest mismatch")
    pc = manifest["pipeline_config"]
    pipeline_config = PipelineConfig(
        ops=tuple(pc["ops"]),
        stopword_list_id=pc["stopword_list_id"],
        english_threshold=pc["english_threshold"],
        min_tokens=pc["min_tokens"],
    )
    if pipeline_config.digest != manifest["pipeline_digest"]:
        raise StaleCacheError(
            f"{manifest_path}: pipeline config digest mismatch (lexicon or config changed)"
        )
    return StagedClassifier(
        identifier=load_model(directory / "identifier.model"),
        identifier_vocab=_load_vocab(directory / "identifier.vocab"),
        categorizer=load_model(directory / "categorizer.model"),
        categorizer_vocab=_load_vocab(directory / "categorizer.vocab"),
        feature_config=feature_config,
        pipeline_config=pipeline_config,
    )
