"""Quick tests of the benchmark's own logic (not of the program).

    python3 bench/selftest.py

Named so that the repository's pytest run does not collect it.
"""

import random
import re
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402
from rweets import rules  # noqa: E402
from rweets.corpus import BINARY, CATEGORICAL  # noqa: E402
from rweets.metrics import compute_report  # noqa: E402


class Quality(unittest.TestCase):
    def test_f1_figures_agree_with_the_program_report(self):
        rng = random.Random(0)
        for domain in (BINARY, CATEGORICAL):
            truth = [rng.choice(domain.labels) for _ in range(300)]
            pred = [t if rng.random() < 0.7 else rng.choice(domain.labels) for t in truth]
            report = compute_report(truth, pred, domain)
            pairs = list(zip(truth, pred))
            self.assertAlmostEqual(checks.macro_f1(pairs, domain.labels), report.f1_macro, 12)
            for pc in report.per_class:
                self.assertAlmostEqual(checks.class_f1(pairs, pc.label), pc.f1, 12)

    def test_missing_prediction_is_a_miss(self):
        pairs = [("food", "food"), ("money", None)]
        # food: P 1, R 1; money: P 0 (0/0), R 0
        self.assertAlmostEqual(checks.macro_f1(pairs, ("food", "money")), 0.5)


class Spread(unittest.TestCase):
    def test_quartiles_and_spread(self):
        s = steady.summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(s["spread"], 1.0)


class LayerMetrics(unittest.TestCase):
    def test_self_times_coverage_and_phase_weights(self):
        # setup: one train call (2 s) with one 1.5 s fit; measured: two rounds,
        # each a 4 s main call holding a 3 s run_series (a 1 s clean and a
        # 0.5 s cache hit inside) and a 0.2 s save_series_output
        trace = [
            ["cli", "main", 0.0, 2.0, -1, None],
            ["pipeline", "train_staged", 0.0, 1.8, 0, None],
            ["models", "LogisticRegression.fit", 0.1, 1.6, 1, {"epochs": 500, "final_loss": 0.5}],
        ]
        for t in (10.0, 20.0):
            base = len(trace)
            trace += [
                ["cli", "main", t, t + 4.0, -1, None],
                ["pipeline", "run_series", t, t + 3.0, base, None],
                ["preprocess", "run_pipeline", t, t + 1.0, base + 1,
                 {"rows_in": 10, "rows_out": 8, "tokens_out": 40}],
                ["pipeline", "FeatureCache.get_or_build", t + 1.0, t + 1.5, base + 1,
                 {"hits": 1, "misses": 0, "built": 0}],
                ["pipeline", "save_series_output", t + 3.0, t + 3.2, base, None],
            ]
        phases = {"setup": [0, 3], "measured": [3, 13]}
        m = spans.layer_metrics(trace, {}, phases, n_setup=1, n_rounds=2)
        self.assertAlmostEqual(m["models.fit_s"], 1.5)
        self.assertAlmostEqual(m["models.epoch_ms"], 3.0)
        self.assertAlmostEqual(m["pipeline.train_s"], 1.8)
        self.assertAlmostEqual(m["pipeline.series_self_s"], 1.5)
        self.assertAlmostEqual(m["pipeline.cache_hits"], 1.0)
        self.assertAlmostEqual(m["preprocess.clean_s"], 1.0)
        self.assertAlmostEqual(m["preprocess.rows_out"], 8)
        self.assertAlmostEqual(m["cli.wall_s"], 6.0)
        self.assertAlmostEqual(m["cli.self_s"], 0.2 + 0.8)
        self.assertAlmostEqual(m["cli.coverage"], 1 - 1.0 / 6.0)

    def test_install_wraps_every_binding_and_restores(self):
        import rweets.cli
        import rweets.pipeline

        original = rweets.pipeline.save_matrix
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            self.assertIsNot(rweets.pipeline.save_matrix, original)
            self.assertIs(rweets.pipeline.save_matrix, rweets.features.save_matrix)
            self.assertIs(rweets.cli.save_matrix, rweets.features.save_matrix)
            self.assertEqual(rweets.cli.rule_classify("I am here"), "not_rweet")
        finally:
            restore()
        self.assertIs(rweets.pipeline.save_matrix, original)
        self.assertIs(rweets.cli.save_matrix, original)
        (span,) = tracer.spans
        self.assertEqual(span[:2], ["rules", "rule_classify"])
        self.assertEqual(span[5]["evals"], rules.N_PATTERNS)


class Inputs(unittest.TestCase):
    def test_long_texts_lengths_fixed_words_seeded(self):
        a, b = workloads.long_texts(1), workloads.long_texts(2)
        self.assertEqual(a, workloads.long_texts(1))
        self.assertNotEqual(a, b)
        self.assertEqual(len(a), workloads.LONG_TEXTS)
        for x, y in zip(a, b):
            self.assertLessEqual(abs(len(x) - len(y)), 12)
            self.assertLessEqual(len(x), workloads.LONG_MAX)
            self.assertGreaterEqual(len(x), workloads.LONG_MIN - 12)

    def test_short_long_texts_match_no_pattern(self):
        patterns = [re.compile(s, re.IGNORECASE) for s in rules.PATTERN_SOURCES]
        for text in workloads.long_texts(3)[:40]:
            self.assertFalse(any(p.search(text) for p in patterns), text)

    def test_rules_input_gold_covers_every_record(self):
        with tempfile.TemporaryDirectory() as tmp:
            plan, gold = workloads.build("rules-long", 5, Path(tmp))
            records = checks._read_jsonl(Path(tmp) / "in/rules.jsonl")
        ids = [r["id"] for r in records]
        self.assertEqual(len(ids), len(set(ids)))
        self.assertEqual(set(ids), set(gold["labels"]))
        self.assertEqual(plan["tweets_per_round"], workloads.UNSEEN_TWEETS + workloads.LONG_TEXTS)


if __name__ == "__main__":
    unittest.main()
