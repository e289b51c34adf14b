"""Two-stage orchestration: identify rweets, filter the predicted requests,
then categorize them by relief type, reusing cached feature matrices.

Training and inference are deliberately separated: train_staged fits the
identifier on a binary dataset and the categorizer on a categorical dataset;
run_series applies both to any {id: text} input and returns its labels as
columns. The categorizer is trained on gold rweets but sees stage-1 PREDICTED
rweets at inference, an intentional train/serve skew inherited from the
staged design.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

from . import _Memo, artifact
from .corpus import BINARY, CATEGORICAL, RWEET, Dataset
from .digest import combine_digests, digest_bytes, digest_records
from .errors import FormatError, StaleCacheError, ValidationError
from .features import (
    FeatureConfig,
    FeatureMatrix,
    Vocabulary,
    _matrix_fields,
    _matrix_from,
    _vocab_fields,
    _vocab_from,
    count_ngrams,
    featurize_tokens,
    save_matrix,  # unused here: the benchmark's self-test asserts `rweets.pipeline.save_matrix`
)
from .jsonl import encode_id_text_lines, encode_line, write_lines
from .models import LogisticRegression, _model_fields, _model_from, input_config
from .preprocess import CleanCorpus, PipelineConfig, run_pipeline
from .rules import rule_block_for_ids

_ENTRY = "cache"  # the artifact kind of a FeatureCache entry, and its files' suffix
_LAYOUT = f"{_ENTRY} {artifact.KIND_VERSIONS.get(_ENTRY, artifact.VERSION)}"


def featurize_corpus(
    corpus: CleanCorpus,
    config: FeatureConfig,
    raw_texts: dict[str, str] | None = None,
    vocabulary: Vocabulary | None = None,
) -> FeatureMatrix:
    """Featurize a cleaned corpus. `raw_texts` maps each id to its original
    text; it is required when rule features are appended, because rules
    evaluate original tweets."""
    rule_block = None
    if config.append_rules:
        if raw_texts is None:
            raise ValidationError("rule features need the original tweet texts")
        rule_block = rule_block_for_ids(corpus.ids, raw_texts)
    return featurize_tokens(
        corpus.tokens,
        corpus.ids,
        config,
        vocab=vocabulary,
        rule_block=rule_block,
    )


class FeatureCache:
    """Disk cache of `run_series`'s feature matrices, one file per slot (see
    `run_series`), so a directory holds at most two files per staged model.
    An entry's header digest is its content key: a slot that holds another
    key's entry is a miss, and the build overwrites it. `built` counts
    actual featurization runs, so tests can assert warm reruns build nothing.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.built = 0

    def path_for(self, slot: str) -> Path:
        return self.directory / f"{slot}.{_ENTRY}"

    def get_or_build(self, slot: str, key: str, builder, vocab: Vocabulary,
                     config: FeatureConfig, ids, rows=None) -> FeatureMatrix:
        """The features of the rows `ids` at positions `rows`, or, when `rows`
        is None, at the positions the entry stores, which must rise strictly
        inside `ids`. A damaged entry is a FormatError naming the file."""
        path = self.path_for(slot)
        try:
            header, arrays = artifact.load(path, _ENTRY, key)
        except (FileNotFoundError, StaleCacheError):  # an empty slot, or another input's entry
            self.misses += 1
            fm = builder()
            self.built += 1
            meta, arrays = _matrix_fields(fm.matrix)
            if rows is None:
                index = {row_id: i for i, row_id in enumerate(ids)}
                arrays["positions"] = artifact.narrow([index[row_id] for row_id in fm.row_ids])
            artifact.save(path, _ENTRY, key, meta, **arrays)
            return fm
        self.hits += 1
        try:
            if rows is None:
                rows = artifact.field(arrays, "positions", artifact.INTEGERS)
                if len(rows) and (rows[0] < 0 or rows[-1] >= len(ids)
                                  or (rows[1:] <= rows[:-1]).any()):
                    raise FormatError(f"positions do not rise strictly inside the {len(ids)} rows")
                rows = rows.tolist()
            return FeatureMatrix(_matrix_from(header["meta"], arrays), vocab, config,
                                 tuple(map(ids.__getitem__, rows)))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise FormatError(f"{path.name}: damaged cache entry ({exc})") from None


@dataclass(frozen=True)
class StagedClassifier:
    identifier: object
    identifier_vocab: Vocabulary
    categorizer: object
    categorizer_vocab: Vocabulary
    feature_config: FeatureConfig
    pipeline_config: PipelineConfig


def train_staged(
    d1: Dataset,
    d2: Dataset,
    feature_config: FeatureConfig,
    make_clf=LogisticRegression,
    pipeline_config: PipelineConfig | None = None,
):
    """Fit the binary identifier on d1 and the category classifier on d2
    under one shared feature configuration; `make_clf` is a zero-argument
    factory that gives each stage a fresh classifier.

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
        clf = make_clf()
        fm = featurize_corpus(clean, input_config(clf, feature_config), dataset.texts_by_id())
        clf.fit(fm.matrix, clean.labels, classes=domain.labels)
        return clf, fm.vocab

    identifier, vocab1 = fit_stage(clean1, d1, BINARY)
    categorizer, vocab2 = fit_stage(clean2, d2, CATEGORICAL)
    staged = StagedClassifier(identifier, vocab1, categorizer, vocab2, feature_config,
                              pipeline_config)
    return staged, (report1, report2)


def run_series(
    texts: dict[str, str],
    staged: StagedClassifier,
    cache: FeatureCache | None = None,
) -> tuple[list[str], list[str], list[str | None]]:
    """Predict stage-1 labels for every cleaned tweet of `texts` (id -> text,
    in input order), then stage-2 labels for the predicted rweets.

    Returns the columns (ids, stage1, stage2): three lists in the cleaned
    corpus's order, where stage2[i] is the category of a row that stage 1
    calls a rweet and None for every other row.

    A stage's cache slot is the stage, the feature config its classifier is
    fed (`input_config`), its vocabulary, the pipeline config and the entry
    layout; its key adds the input as given, not as cleaned: stage 1's every
    (id, text) in order, stage 2's the stage-1 key and the positions of its
    rows among stage 1's. Cleaning runs at most once per call and only when
    a stage has to be built, so a full hit cleans, evaluates and vectorizes
    nothing. The pipeline digest covers the pipeline config and the lexicon
    but not the cleaning code, as the feature digest covers the feature
    config but not the featurization code.

    N-grams are counted and the 18 rules run at most once per cleaned tweet
    per call: building stage 1 counts and evaluates every cleaned row, and
    building stage 2 takes its rows' counts and bits from those; when stage 1
    is a cache hit, stage 2 counts and evaluates only its own rows.
    """
    config1 = input_config(staged.identifier, staged.feature_config)
    config2 = input_config(staged.categorizer, staged.feature_config)
    fm1 = None  # stage 1's features, once built or loaded
    cleaned = None  # the cleaned corpus, once a builder needs it
    all_counts = all_rules = None  # the n-gram counts and rule block of every cleaned row

    def build(rows, vocab: Vocabulary, config: FeatureConfig) -> FeatureMatrix:
        """Featurize the cleaned rows at positions `rows` (None: every row)
        under `config`; both stages' configs share the n-gram range and the
        rule flag, so stage 2 can take stage 1's counts and bits."""
        nonlocal cleaned, all_counts, all_rules
        if cleaned is None:
            unlabeled = [(tweet_id, text, None) for tweet_id, text in texts.items()]
            cleaned, _ = run_pipeline(unlabeled, staged.pipeline_config)
        if fm1 is not None and cleaned.ids != fm1.row_ids:
            raise StaleCacheError(
                f"{cache.path_for(slot1).name}: rows differ from the cleaned input")
        row_ids = cleaned.ids if rows is None else [cleaned.ids[i] for i in rows]
        if all_counts is not None:
            counts, all_counts = all_counts.take(rows), None  # its last use: free it
            rules = None if all_rules is None else all_rules[rows]
        else:
            tokens = cleaned.tokens if rows is None else [cleaned.tokens[i] for i in rows]
            counts = count_ngrams(tokens, config.ngram_range)
            rules = rule_block_for_ids(row_ids, texts) if config.append_rules else None
            if rows is None:
                all_counts, all_rules = counts, rules
        return featurize_tokens(counts, row_ids, config, vocab=vocab, rule_block=rules)

    def featurize(slot, key, ids, rows, vocab: Vocabulary, config: FeatureConfig) -> FeatureMatrix:
        if cache is None:
            return build(rows, vocab, config)
        return cache.get_or_build(slot, key, lambda: build(rows, vocab, config), vocab, config,
                                  ids, rows)

    def slot(stage, vocab: Vocabulary, config: FeatureConfig) -> str:
        return combine_digests(stage, config.digest, vocab.digest, pipeline_digest, _LAYOUT)

    pipeline_digest = staged.pipeline_config.digest
    slot1 = slot("stage1", staged.identifier_vocab, config1)
    key1 = None if cache is None else combine_digests(slot1, digest_records(texts.items()))
    fm1 = featurize(slot1, key1, list(texts), None, staged.identifier_vocab, config1)
    stage1 = staged.identifier.predict(fm1.matrix)

    keep = [i for i, label in enumerate(stage1) if label == RWEET]
    stage2: list[str | None] = [None] * len(stage1)
    if keep:
        slot2 = slot("stage2", staged.categorizer_vocab, config2)
        key2 = None if cache is None else combine_digests(
            slot2, key1, digest_bytes(struct.pack(f"<{len(keep)}q", *keep)))
        fm2 = featurize(slot2, key2, fm1.row_ids, keep, staged.categorizer_vocab, config2)
        categories = staged.categorizer.predict(fm2.matrix)
        if len(categories) != len(keep):
            raise ValidationError(f"categorizer gave {len(categories)} labels for {len(keep)} rows")
        for i, category in zip(keep, categories):
            stage2[i] = category
    return list(fm1.row_ids), stage1, stage2


def _stage_tail(stages: tuple) -> str:
    """The `encode_line` tail of a row's stage1 label and its stage2 label, if any."""
    stage1, stage2 = stages
    fields = {"stage1": stage1} if stage2 is None else {"stage1": stage1, "stage2": stage2}
    return ", " + encode_line(fields)[1:-1]


def save_series_output(texts, ids, stage1, stage2, path, escape_free=False) -> None:
    """Write each row of the `run_series` columns, with its text from `texts`,
    as the line `json.dumps(record, ensure_ascii=False)` of its record through
    `write_lines`: `encode_id_text_lines` encodes the id and text, given
    `escape_free`, and the tail of each distinct (stage1, stage2) pair once."""
    tails = map(_Memo(_stage_tail).__getitem__, zip(stage1, stage2, strict=True))
    write_lines(path, encode_id_text_lines(ids, map(texts.__getitem__, ids), tails, escape_free))


# --- staged-model persistence -----------------------------------------------


_STAGES = {"identifier": BINARY, "categorizer": CATEGORICAL}  # stage -> its label domain
STAGED_FILE = "staged.model"
# the model and vocabulary files of the layout train wrote before one file held
# the staged model (a JSON manifest was the fifth)
_FIVE_FILE_LAYOUT = tuple(f"{stage}.{kind}" for stage in _STAGES for kind in ("model", "vocab"))


def save_staged(staged: StagedClassifier, directory) -> None:
    """Write the staged classifier as one `staged` artifact in `directory`:
    both configurations, their combined digest in the header, and per stage
    the classifier and the vocabulary with its own digest, each array named
    `<stage>.<array>`."""
    meta = {"feature_config": vars(staged.feature_config),
            "pipeline_config": vars(staged.pipeline_config)}
    arrays = {}
    for stage in _STAGES:
        vocab = getattr(staged, f"{stage}_vocab")
        model_meta, model_arrays = _model_fields(getattr(staged, stage))
        vocab_meta, vocab_arrays = _vocab_fields(vocab)
        meta[stage] = {**model_meta, **vocab_meta, "vocab_digest": vocab.digest}
        arrays.update((f"{stage}.{k}", v) for k, v in {**model_arrays, **vocab_arrays}.items())
    digest = combine_digests(staged.feature_config.digest, staged.pipeline_config.digest)
    artifact.save(Path(directory) / STAGED_FILE, "staged", digest, meta, **arrays)


def load_staged(directory) -> StagedClassifier:
    """Read the staged classifier `save_staged` wrote into `directory`. A
    damaged file, a vocabulary that disagrees with its digest, a stage whose
    classes are not its domain's labels or a directory in the five-file
    layout is a FormatError; configurations whose digests
    (the pipeline's covers the lexicon) differ from the header's are stale."""
    path = Path(directory) / STAGED_FILE
    for old in (Path(directory) / name for name in _FIVE_FILE_LAYOUT):
        if old.exists() and not path.exists():
            try:
                artifact.load(old, "staged")
            except FormatError as exc:
                raise FormatError(
                    f"{directory}: holds the five-file staged layout (a .model and a .vocab file "
                    f"per stage and a JSON manifest), which is no longer read; re-run train "
                    f"({exc})") from None
    header, arrays = artifact.load(path, "staged")
    try:
        meta = header["meta"]
        configs = FeatureConfig(**meta["feature_config"]), PipelineConfig(**meta["pipeline_config"])
        fitted = []
        for stage, domain in _STAGES.items():
            prefix = f"{stage}."
            own = {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}
            vocab = _vocab_from(meta[stage], own)
            if vocab.digest != meta[stage]["vocab_digest"]:
                raise FormatError(f"{stage} vocabulary disagrees with its digest")
            model = _model_from(meta[stage], own)
            if tuple(model.classes_) != domain.labels:
                raise FormatError(f"{stage} classes {list(model.classes_)} are not the "
                                  f"{domain.name} labels {list(domain.labels)}")
            fitted += [model, vocab]
    except (KeyError, TypeError, AttributeError, ValueError) as exc:  # FormatError too
        raise FormatError(f"{path.name}: damaged staged model ({exc})") from None
    if combine_digests(configs[0].digest, configs[1].digest) != header["digest"]:
        raise StaleCacheError(f"{path.name}: feature or pipeline config digest mismatch "
                              "(lexicon or config changed)")
    return StagedClassifier(*fitted, *configs)
