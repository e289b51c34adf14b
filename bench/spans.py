"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

`install` wraps the public functions of each layer. The program's modules
bind names at import (`from .features import save_matrix`), so a wrapper is
installed under every module attribute that holds the original, not only in
the defining module; methods are wrapped on their class. Spans stay in
memory (`Tracer.spans`) and are written out once, when the run ends.

A span is [layer, name, start, end, parent, counts]; `parent` is the index
of the enclosing span or -1. A span's self time is its duration minus the
durations of its direct children (the program is single-threaded, so
children never overlap).
"""

import functools
import json
import os
import sys
import types
from time import perf_counter

MIB = 1 << 20


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.rule_evals = 0  # RulePattern.matches calls
        self.texts = {}  # id(text) -> text; holding the text keeps ids unique

    def wrap(self, layer, name, fn, counts=None, before=None):
        """Wrap `fn` in a span. `counts(args, result, before(args))` runs
        inside the span, so counting cost lands on the layer counted."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                state = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if counts is not None:
                    span[5] = counts(args, result, state)
            finally:
                span[3] = perf_counter()
                stack.pop()
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "text_chars": {str(k): len(t) for k, t in self.texts.items()}}


def _file_mb(*paths) -> float:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p)) / MIB


def _matrix_mb(path) -> float:
    path = os.fspath(path)
    return _file_mb(path, path + ".vocab", path + ".rowids")


def install(tracer: Tracer):
    """Wrap every traced function of the imported `rweets` package; returns
    a function that restores the originals."""
    from rweets import cli, corpus, digest, features, models, pipeline, preprocess, rules, sparse

    def per_text(args, _result, evals_before):
        tracer.texts.setdefault(id(args[0]), args[0])
        return {"text": id(args[0]), "evals": tracer.rule_evals - evals_before}

    def cache_state(args):
        cache = args[0]
        return cache.hits, cache.misses, cache.built

    def cache_delta(args, _result, before):
        after = cache_state(args)
        return dict(zip(("hits", "misses", "built"), (a - b for a, b in zip(after, before))))

    def product_mb(args, result, _):
        return {"computed_mb": args[0].nnz * result.shape[1] * 8 / MIB}

    evals_before = lambda args: tracer.rule_evals  # noqa: E731
    functions = [
        (cli, "main", "cli", None, None),
        (corpus, "load_dataset", "corpus", None, None),
        (digest, "atomic_write_text", "digest", lambda a, r, s: {"mb": _file_mb(a[0])}, None),
        (preprocess, "run_pipeline", "preprocess", lambda a, r, s: {
            "rows_in": len(a[0]), "rows_out": len(r[0]),
            "tokens_out": sum(len(t) for t in r[0].token_lists())}, None),
        (rules, "match_tweet", "rules", per_text, evals_before),
        (rules, "rule_classify", "rules", per_text, evals_before),
        (rules, "rule_features", "rules", None, None),
        (features, "build_vocabulary", "features", lambda a, r, s: {"terms": len(r)}, None),
        (features, "featurize_tokens", "features", lambda a, r, s: {"nnz": r.matrix.nnz}, None),
        (features, "save_matrix", "features", lambda a, r, s: {"mb": _matrix_mb(a[1])}, None),
        (features, "load_matrix", "features", lambda a, r, s: {"mb": _matrix_mb(a[0])}, None),
        (pipeline, "run_series", "pipeline", None, None),
        (pipeline, "save_series_output", "pipeline", None, None),
        (pipeline, "train_staged", "pipeline", None, None),
        (pipeline, "load_staged", "pipeline", None, None),
        (models, "cross_validate", "models", None, None),
    ]
    methods = [
        (models.LogisticRegression, "fit", "models", lambda a, r, s: {
            "epochs": len(r.loss_history_), "final_loss": r.loss_history_[-1]}, None),
        (models.LogisticRegression, "predict", "models", None, None),
        (sparse.SparseMatrix, "matmul_dense", "sparse", product_mb, None),
        (sparse.SparseMatrix, "t_matmul_dense", "sparse", product_mb, None),
        (pipeline.FeatureCache, "get_or_build", "pipeline", cache_delta, cache_state),
    ]
    undo = []
    modules = [m for n, m in sys.modules.items() if n == "rweets" or n.startswith("rweets.")]
    for module, name, layer, counts, before in functions:
        original = getattr(module, name)
        wrapper = tracer.wrap(layer, name, original, counts, before)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    for cls, name, layer, counts, before in methods:
        original = cls.__dict__[name]
        setattr(cls, name, tracer.wrap(layer, f"{cls.__name__}.{name}", original, counts, before))
        undo.append((cls, name, original))

    # cli.py reads and writes JSON lines itself (cmd_rules, _load_texts); its
    # own `json` name gets a copy of the module with traced loads/dumps
    traced_json = types.ModuleType("json")
    traced_json.__dict__.update(vars(json))
    traced_json.loads = tracer.wrap("json", "loads", json.loads)
    traced_json.dumps = tracer.wrap("json", "dumps", json.dumps)
    cli.json = traced_json
    undo.append((cli, "json", json))

    matches = rules.RulePattern.__dict__["matches"]

    @functools.wraps(matches)
    def counted_matches(self, text):
        tracer.rule_evals += 1
        return matches(self, text)

    rules.RulePattern.matches = counted_matches
    undo.append((rules.RulePattern, "matches", matches))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# --- derivation ---------------------------------------------------------------


def layer_metrics(spans, text_chars, phases, n_setup, n_rounds) -> dict:
    """Per-layer metrics for one set-up plus one measured round.

    `phases` maps a phase name to the [first, last) span-index range it
    recorded. Set-up spans are divided by the set-up repetitions and
    measured spans by the rounds; warm-up spans are left out.
    """
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    selves = [d - c for d, c in zip(dur, child)]

    totals: dict = {}

    def add(key, value, weight):
        totals[key] = totals.get(key, 0.0) + value * weight

    per_text: dict = {}
    for phase, weight in (("setup", 1.0 / max(n_setup, 1)), ("measured", 1.0 / n_rounds)):
        lo, hi = phases.get(phase, (0, 0))
        for i in range(lo, hi):
            layer, name, _, _, parent, counts = spans[i]
            counts = counts or {}
            d, own = dur[i], selves[i]
            add(f"{layer}.self_s", own, weight)
            outer = parent < 0 or spans[parent][0] != layer
            if layer == "cli":
                add("cli.wall_s", d, weight)
            elif layer == "models":
                if name == "LogisticRegression.fit":
                    add("models.fit_s", d, weight)
                    add("models.fits", 1, weight)
                    add("models.epochs", counts["epochs"], weight)
                    add("models.loss_sum", counts["final_loss"], weight)
                elif name == "LogisticRegression.predict":
                    add("models.predict_s", d, weight)
            elif layer == "sparse":
                add("sparse.matmul_s" if name.endswith(".matmul_dense") else "sparse.t_matmul_s",
                    d, weight)
                add("sparse.calls", 1, weight)
                add("sparse.computed_mb", counts["computed_mb"], weight)
            elif layer == "rules":
                if outer:
                    add("rules.match_s", d, weight)
                if "text" in counts:
                    key = (phase, counts["text"])
                    per_text[key] = per_text.get(key, 0.0) + d
                    add("rules.evals", counts["evals"], weight)
            elif layer == "pipeline":
                if name == "run_series":
                    add("pipeline.series_self_s", own, weight)
                elif name == "train_staged":
                    add("pipeline.train_s", d, weight)
                elif name == "load_staged":
                    add("pipeline.staged_load_s", d, weight)
                elif name == "FeatureCache.get_or_build":
                    for k in ("hits", "misses", "built"):
                        key = "cache_" + k
                        add(f"pipeline.{key}", counts[k], weight)
            elif layer == "features":
                if name == "build_vocabulary":
                    add("features.vocab_s", d, weight)
                    add("features.terms", counts["terms"], weight)
                elif name == "featurize_tokens":
                    add("features.vectorize_s", own, weight)
                    add("features.nnz", counts["nnz"], weight)
                elif name == "save_matrix":
                    add("features.save_s", d, weight)
                    add("features.save_mb", counts["mb"], weight)
                else:
                    add("features.load_s", d, weight)
                    add("features.load_mb", counts["mb"], weight)
            elif layer == "preprocess":
                add("preprocess.clean_s", d, weight)
                for k in ("rows_in", "rows_out", "tokens_out"):
                    add(f"preprocess.{k}", counts[k], weight)
            elif layer == "corpus":
                add("corpus.load_s", d, weight)
            elif layer == "json":
                add("cli.json_s", d, weight)
            elif layer == "digest":
                if outer:
                    add("digest.write_s", d, weight)
                    add("digest.write_mb", counts["mb"], weight)
        for (p, text), seconds in per_text.items():
            if p == phase:
                add("rules.texts", 1, weight)
                add("rules.chars", text_chars.get(str(text), 0), weight)
    out = {name: totals.get(name, 0.0) for name, _ in PER_LAYER}
    out["models.epoch_ms"] = 1000 * out["models.fit_s"] / out["models.epochs"] if out["models.epochs"] else 0.0
    out["models.final_loss"] = totals.get("models.loss_sum", 0.0) / out["models.fits"] if out["models.fits"] else 0.0
    out["rules.evals_per_text"] = totals.get("rules.evals", 0.0) / out["rules.texts"] if out["rules.texts"] else 0.0
    out["rules.max_text_s"] = max(per_text.values(), default=0.0)
    out["cli.self_s"] = totals.get("cli.self_s", 0.0)
    out["cli.coverage"] = 1.0 - out["cli.self_s"] / out["cli.wall_s"] if out["cli.wall_s"] else 0.0
    return out


# (name, unit): every per-layer metric the traced run prints
PER_LAYER = (
    ("models.fit_s", "s"), ("models.fits", "count"), ("models.epochs", "count"),
    ("models.epoch_ms", "ms"), ("models.final_loss", "nats"), ("models.predict_s", "s"),
    ("models.self_s", "s"),
    ("sparse.matmul_s", "s"), ("sparse.t_matmul_s", "s"), ("sparse.calls", "count"),
    ("sparse.computed_mb", "MiB"), ("sparse.self_s", "s"),
    ("rules.match_s", "s"), ("rules.texts", "count"), ("rules.evals_per_text", "count"),
    ("rules.max_text_s", "s"), ("rules.chars", "count"), ("rules.self_s", "s"),
    ("pipeline.series_self_s", "s"), ("pipeline.train_s", "s"), ("pipeline.staged_load_s", "s"),
    ("pipeline.cache_hits", "count"), ("pipeline.cache_misses", "count"),
    ("pipeline.cache_built", "count"), ("pipeline.self_s", "s"),
    ("features.vocab_s", "s"), ("features.terms", "count"), ("features.vectorize_s", "s"),
    ("features.nnz", "count"), ("features.save_s", "s"), ("features.save_mb", "MiB"),
    ("features.load_s", "s"), ("features.load_mb", "MiB"), ("features.self_s", "s"),
    ("preprocess.clean_s", "s"), ("preprocess.rows_in", "count"),
    ("preprocess.rows_out", "count"), ("preprocess.tokens_out", "count"),
    ("preprocess.self_s", "s"),
    ("corpus.load_s", "s"), ("corpus.self_s", "s"),
    ("digest.write_s", "s"), ("digest.write_mb", "MiB"), ("digest.self_s", "s"),
    ("cli.json_s", "s"), ("cli.self_s", "s"), ("cli.wall_s", "s"), ("cli.coverage", "ratio"),
    ("cli.tweets_per_s", "tweets/s"),  # set by run.py, as the end-to-end tweets_per_s
)
