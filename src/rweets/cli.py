"""Command-line front door.

Subcommands: rules, train, evaluate, series, synth.
Exit codes are a stable contract: 0 success, 1 usage, 2 I/O, 3 validation,
4 stale cache. A flat key=value config file can preset any long flag;
explicit flags win.
"""

import argparse
import functools
import itertools
import sys

from . import _Memo, __version__, _lazy_names
from .corpus import (
    BINARY,
    CATEGORICAL,
    DOMAINS,
    NOT_RWEET,
    RWEET,
    load_dataset,
    save_dataset,
    synth_corpus,
)
from .digest import atomic_write_text
from .errors import RweetsError, StaleCacheError, ValidationError
from .jsonl import encode_id_text_lines, encode_line, read_chunks, text_lines, write_lines

# The modules that need numpy, and rules, are imported by the commands that
# use them, so `rules classify` and `synth` start without numpy. The two
# names below still read as `rweets.cli.<name>`, their module's object, for
# the benchmark's self-test. Its tracer rebinds names it finds in each
# module's `vars()`, which these never enter, so it does not rely on them.
__getattr__, _ = _lazy_names(__name__, {
    "features": "save_matrix",
    "rules": "rule_classify",
})


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _long_flags(parser: argparse.ArgumentParser) -> dict:
    """Config-file keys, each with its flag's action: every long flag of parser
    and of its subcommands, written with underscores, except --help,
    --version and --config, which a file cannot preset."""
    keys = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                keys.update(_long_flags(subparser))
        elif action.dest not in ("help", "version", "config"):
            keys.update((opt[2:].replace("-", "_"), action)
                        for opt in action.option_strings if opt.startswith("--"))
    return keys


def _load_config_file(path, known_keys: dict) -> dict:
    """The values a config file presets: a switch's key reads `true` or
    `false`, any other key its flag's type, and within its flag's choices."""
    values = {}
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}: line {lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        if key not in known_keys:
            raise UsageError(f"{path}: line {lineno}: unknown key {key!r}")
        action = known_keys[key]
        try:
            if isinstance(action, argparse._StoreTrueAction):
                value = {"true": True, "false": False}[raw]
            else:
                value = (action.type or str)(raw)
        except (KeyError, ValueError):
            raise ValidationError(f"{path}: line {lineno}: bad value for {key}") from None
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"{path}: line {lineno}: {key} must be one of "
                             f"{', '.join(map(repr, action.choices))}, got {value!r}")
        values[key] = value
    return values


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if not getattr(args, "config", None):
        return
    # keys of other subcommands are legal: one preset file serves them all
    for key, value in _load_config_file(args.config, _long_flags(parser)).items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


_ORDERS = ("default", "punct-first")


def _pipeline_config(args) -> "PipelineConfig":
    """PipelineConfig from the flags given; the rest keep the config's defaults."""
    from .preprocess import DEFAULT_OPS, PUNCT_FIRST_OPS, PipelineConfig
    ops = dict(zip(_ORDERS, (DEFAULT_OPS, PUNCT_FIRST_OPS))).get(args.order)
    given = {"ops": ops, "english_threshold": args.threshold, "min_tokens": args.min_tokens}
    return PipelineConfig(**{k: v for k, v in given.items() if v is not None})


def _feature_config(args) -> "FeatureConfig":
    from .features import FeatureConfig, combo
    if args.combo is not None:
        given = [k for k in ("vectorizer", "ngrams", "rules") if getattr(args, k) is not None]
        if given:
            raise UsageError(f"--combo and --{given[0]} cannot be given together")
        if not 1 <= args.combo <= 24:
            raise UsageError(f"--combo must be in 1..24, got {args.combo}")
        return combo(args.combo)
    if args.vectorizer is None and args.ngrams is None:
        raise UsageError("give --combo N or explicit --vectorizer/--ngrams flags")
    ngrams = args.ngrams or "1,1"
    try:
        lo, hi = (int(x) for x in ngrams.split(","))
    except ValueError:
        raise UsageError(f"--ngrams expects LO,HI, got {ngrams!r}") from None
    return FeatureConfig(vectorizer=args.vectorizer or "tf", ngram_range=(lo, hi),
                         append_rules=bool(args.rules))


def _domain(args):
    return DOMAINS[args.domain or "binary"]


def _classifier(args):
    """A zero-argument factory of the --clf classifier, given the flags of its
    constructor that are set; the rest keep the constructor's defaults."""
    from .models import _HYPER, CLASSIFIERS
    name = args.clf or "logreg"
    given = {k: getattr(args, k) for k in _HYPER[name]}
    return functools.partial(CLASSIFIERS[name], **{k: v for k, v in given.items() if v is not None})


def _add_pipeline_flags(parser):
    parser.add_argument("--order", choices=_ORDERS, default=None,
                        help="cleaning op order (default: default)")
    parser.add_argument("--threshold", type=float, default=None,
                        help="English-evidence ratio threshold (default 0.15)")
    parser.add_argument("--min-tokens", dest="min_tokens", type=int, default=None,
                        help="minimum tokens to keep a tweet (default 2)")


def _add_feature_flags(parser):
    parser.add_argument("--combo", type=int, default=None,
                        help="standard feature combination index, 1..24")
    parser.add_argument("--vectorizer", choices=("tf", "tf-idf"), default=None)
    parser.add_argument("--ngrams", default=None, help="n-gram range as LO,HI")
    parser.add_argument("--rules", action="store_true", default=None,
                        help="append rule features")


def _add_train_flags(parser):
    parser.add_argument("--clf", choices=("logreg", "nb"), default=None)
    parser.add_argument("--l2-penalty", dest="l2_penalty", type=float, default=None)
    parser.add_argument("--max-epochs", dest="max_epochs", type=int, default=None,
                        help="logreg iteration cap (default 500)")
    parser.add_argument("--tol", type=float, default=None,
                        help="logreg stops once max |gradient| <= tol (default 1e-6)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="naive Bayes smoothing (default 1.0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="rweets", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rweets {__version__}")
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    parser.add_argument("--cache-dir", dest="cache_dir", default=None)
    parser.add_argument("--verbose", action="store_true", default=None)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("rules", help="rule-based rweet classification")
    p.add_argument("action", nargs="?", default="classify", choices=("classify",))
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("train", help="train the staged classifier pair")
    p.add_argument("--binary", required=True, help="binary-labeled dataset (stage 1)")
    p.add_argument("--categories", required=True, help="categorical dataset (stage 2)")
    p.add_argument("--out", required=True, help="output directory for the staged model")
    _add_feature_flags(p)
    _add_pipeline_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("evaluate", help="stratified cross-validation report")
    p.add_argument("--input", required=True)
    p.add_argument("--domain", default=None, choices=sorted(DOMAINS))
    p.add_argument("--folds", type=int, default=None, help="fold count (default 5)")
    p.add_argument("--out", default=None, help="write the machine-readable report here")
    _add_feature_flags(p)
    _add_pipeline_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("series", help="identify, filter, and categorize")
    p.add_argument("--model", default=None, help="staged model directory")
    p.add_argument("--input", default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--binary", default=None, help="train stage 1 on this dataset first")
    p.add_argument("--categories", default=None, help="train stage 2 on this dataset first")
    p.add_argument("--resubstitution", action="store_true", default=None,
                   help="predict the stage-1 training data back (uses --binary as input)")
    _add_feature_flags(p)
    _add_pipeline_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--domain", default=None, choices=sorted(DOMAINS))
    p.add_argument("--out", required=True)

    return parser


# --- commands ----------------------------------------------------------------


def _rule_fields(bits) -> tuple[dict, str]:
    """A bit row's `rule_label` and `rule_bits`, and their `encode_line` tail."""
    fields = {"rule_label": RWEET if any(bits) else NOT_RWEET, "rule_bits": list(bits)}
    return fields, ", " + encode_line(fields)[1:-1]


def _rule_lines(chunks):
    """Per chunk of `read_chunks`, the output lines of its records, with
    `rule_label` and `rule_bits` set. A chunk's distinct texts are matched as
    one batch and each of its distinct bit rows is encoded once; no chunk
    keeps anything for the next. A chunk whose records are all exactly
    {"id": str, "text": str}, in that order (tested once per chunk), is
    encoded by one `encode_id_text_lines` call; in any other chunk those
    records are, and every other by `encode_line`."""
    from .rules import _NO_BITS, rule_bits
    for chunk, columns, escape_free in chunks:
        texts = columns["text"]
        distinct = list(dict.fromkeys(texts))
        rows, fields = rule_bits(distinct), _Memo(_rule_fields)
        zero = fields[_NO_BITS]  # most texts' row: looking it up would hash its 18 ints
        by_text = dict(zip(distinct, [zero if bits is _NO_BITS else fields[bits] for bits in rows]))
        # two keys, "id" first, and ids all strs (the reader checked "text")
        if set(map(len, chunk)) <= {2} and set(map(next, map(iter, chunk))) <= {"id"} and set(
                map(type, ids := [record["id"] for record in chunk])) <= {str}:
            yield list(encode_id_text_lines(ids, texts, [by_text[text][1] for text in texts],
                                            escape_free))
            continue
        ids = [record.get("id") for record in chunk]
        plain = [tuple(record) == ("id", "text") and type(i) is str for record, i in zip(chunk, ids)]
        lines = list(encode_id_text_lines(
            itertools.compress(ids, plain), itertools.compress(texts, plain),
            [by_text[text][1] for text in itertools.compress(texts, plain)], escape_free))
        # every other record, in input order, so each line is inserted at its own position
        for k in [k for k, is_plain in enumerate(plain) if not is_plain]:
            record = chunk[k]
            fields, tail = by_text[record["text"]]
            # a record holding either field keeps its keys in their places
            if clash := "rule_label" in record or "rule_bits" in record:
                record.update(fields)
            lines.insert(k, encode_line(record, "" if clash else tail) + "\n")
        yield lines


def cmd_rules(args) -> int:
    lines = itertools.chain.from_iterable(_rule_lines(read_chunks(args.input, ("text",))))
    count = write_lines(args.output, lines)
    print(f"classified {count} tweets -> {args.output}")
    return 0


def _train(args):
    """train_staged on --binary and --categories under the flags' configs."""
    from .pipeline import train_staged
    return train_staged(load_dataset(args.binary, BINARY),
                        load_dataset(args.categories, CATEGORICAL), _feature_config(args),
                        make_clf=_classifier(args), pipeline_config=_pipeline_config(args))


def cmd_train(args) -> int:
    from .models import LogisticRegression
    from .pipeline import save_staged
    staged, (r1, r2) = _train(args)
    save_staged(staged, args.out)
    if args.verbose:
        for stage, clf in (("identifier", staged.identifier), ("categorizer", staged.categorizer)):
            if isinstance(clf, LogisticRegression):
                print(
                    f"{stage}: {clf.n_iter_} iterations, loss {clf.loss_history_[-1]:.6g}, "
                    f"max |grad| {clf.grad_norm_:.3g}, {clf.stop_reason_}",
                    file=sys.stderr,
                )
    print(f"identifier trained on {r1.output_count} cleaned tweets")
    print(f"categorizer trained on {r2.output_count} cleaned tweets")
    print(f"staged model written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    from .metrics import render_record, render_text
    from .models import cross_validate
    from .preprocess import run_pipeline
    domain = _domain(args)
    dataset = load_dataset(args.input, domain)
    dataset.require_labeled()
    corpus, _ = run_pipeline(dataset, _pipeline_config(args))
    result = cross_validate(_classifier(args), corpus, domain, _feature_config(args),
                            k=args.folds if args.folds is not None else 5,
                            seed=args.seed if args.seed is not None else 0,
                            raw_texts=dataset.texts_by_id())
    sys.stdout.write(render_text(result.pooled))
    if args.out:
        atomic_write_text(args.out, render_record(result.pooled))
        print(f"report written to {args.out}")
    return 0


def _texts_by_id(path) -> tuple[dict, bool]:
    """{id: text} of a JSONL file (the reader's id table); whether every chunk was escape-free."""
    texts = {}
    escape_free = all([escape_free for *_, escape_free in read_chunks(path, ids=texts)])
    return texts, escape_free


def cmd_series(args) -> int:
    from .pipeline import (FeatureCache, _series_from_bytes, load_staged, run_series,
                           save_series_output)
    if args.model:
        staged = load_staged(args.model)
    elif args.binary and args.categories:
        staged, _ = _train(args)
    else:
        raise UsageError("series needs --model or both --binary and --categories")
    if args.resubstitution:
        if not args.binary:
            raise UsageError("--resubstitution needs --binary (it predicts that data back)")
        input_path = args.binary
    elif args.input:
        input_path = args.input
    else:
        raise UsageError("series needs --input (or --resubstitution)")
    cache = FeatureCache(args.cache_dir) if args.cache_dir else None
    # a full hit under the file's bytes decodes no JSON
    if cache is None or (stage1 := _series_from_bytes(input_path, staged, cache,
                                                      args.output)) is None:
        texts, escape_free = _texts_by_id(input_path)  # input labels, if any, are ignored
        ids, stage1, stage2 = run_series(texts, staged, cache, escape_free)
        save_series_output(texts, ids, stage1, stage2, args.output, escape_free)
    print(f"{len(stage1)} tweets classified; {stage1.count('rweet')} rweets categorized")
    if cache is not None and args.verbose:
        print(f"cache: {cache.hits} hits, {cache.misses} misses, {cache.built} built")
    return 0


def cmd_synth(args) -> int:
    dataset = synth_corpus(
        args.seed if args.seed is not None else 0, args.size, _domain(args)
    )
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} synthetic tweets to {args.out}")
    return 0


_COMMANDS = {
    "rules": cmd_rules,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "series": cmd_series,
    "synth": cmd_synth,
}


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("no command given (see --help)")
        _apply_config(args, parser)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except StaleCacheError as exc:
        print(f"stale cache: {exc}", file=sys.stderr)
        return 4
    except RweetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
