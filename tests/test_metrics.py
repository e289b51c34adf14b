import json
from dataclasses import asdict

import numpy as np
import pytest

from oracles import reference_report, report_from_record
from rweets.corpus import BINARY, CATEGORICAL, LabelDomain
from rweets.errors import ValidationError
from rweets.metrics import (
    compute_report,
    confusion,
    render_record,
    render_text,
    report_from_confusion,
)

AB = LabelDomain("ab", ("A", "B"))


def report_of(cm):
    """The report of a matrix under labels A, B, C, ... of its size."""
    cm = np.asarray(cm)
    return report_from_confusion(cm, LabelDomain("t", tuple("ABCDEF"[: cm.shape[0]])))


def micro(cm):
    r = report_of(cm)
    return r.p_micro, r.r_micro, r.f1_micro


def macro(cm):
    r = report_of(cm)
    return r.p_macro, r.r_macro, r.f1_macro


def random_cm(rng, max_size=6):
    size = int(rng.integers(2, max_size + 1))
    cm = rng.integers(0, 50, size=(size, size))
    if cm.sum() == 0:
        cm[0, 0] = 1
    return cm


class TestConfusion:
    def test_identity_diagonal(self):
        cm = confusion(["A", "B"], ["A", "B"], AB)
        np.testing.assert_array_equal(cm, [[1, 0], [0, 1]])

    def test_counting(self):
        cm = confusion(["A", "A", "B"], ["A", "B", "B"], AB)
        np.testing.assert_array_equal(cm, [[1, 1], [0, 1]])

    def test_empty(self):
        np.testing.assert_array_equal(confusion([], [], AB), [[0, 0], [0, 0]])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            confusion(["A"], ["A", "B"], AB)


class TestAccuracy:
    def test_perfect(self):
        assert report_of([[3, 0], [0, 2]]).accuracy == 1.0

    def test_two_thirds(self):
        assert report_of([[1, 1], [0, 1]]).accuracy == pytest.approx(2 / 3)

    def test_all_wrong(self):
        assert report_of([[0, 2], [2, 0]]).accuracy == 0.0


class TestMicro:
    def test_perfect(self):
        assert micro([[2, 0], [0, 3]]) == (1.0, 1.0, 1.0)

    def test_hand_pooling(self):
        p, r, f1 = micro([[1, 1], [0, 1]])
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_micro_equality_theorem(self):
        # for single-label prediction, pooled FP == pooled FN, so micro
        # precision == recall == F1 == accuracy
        rng = np.random.default_rng(0)
        for _ in range(1000):
            cm = random_cm(rng)
            p, r, f1 = micro(cm)
            a = report_of(cm).accuracy
            assert abs(p - a) <= 1e-12
            assert abs(r - a) <= 1e-12
            assert abs(f1 - a) <= 1e-12


class TestMacro:
    def test_perfect(self):
        assert macro([[2, 0], [0, 3]]) == (1.0, 1.0, 1.0)

    def test_hand_computation(self):
        p, r, f1 = macro([[1, 1], [0, 1]])
        assert p == pytest.approx(0.75)
        assert r == pytest.approx(0.75)
        assert f1 == pytest.approx(0.75)

    def test_never_predicted_class_contributes_zero(self):
        # class B never predicted: its precision term is 0/0 -> 0
        p, _r, _f1 = macro([[2, 0], [1, 0]])
        assert p == pytest.approx((2 / 3 + 0.0) / 2)

    def test_differs_from_mean_of_per_class_f1(self):
        cm = np.array([[1, 1], [0, 1]])
        report = report_from_confusion(cm, AB)
        mean_f1 = sum(pc.f1 for pc in report.per_class) / 2
        assert report.f1_macro == pytest.approx(0.75)
        assert mean_f1 == pytest.approx(2 / 3)
        assert report.f1_macro != pytest.approx(mean_f1)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            _p, _r, f1 = macro(random_cm(rng))
            assert 0.0 <= f1 <= 1.0


class TestPermutationInvariance:
    def test_metrics_stable_under_relabeling(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cm = random_cm(rng)
            perm = rng.permutation(cm.shape[0])
            permuted = cm[np.ix_(perm, perm)]
            assert report_of(cm).accuracy == pytest.approx(report_of(permuted).accuracy)
            np.testing.assert_allclose(micro(cm), micro(permuted))
            np.testing.assert_allclose(macro(cm), macro(permuted))


class TestReport:
    def test_perfect_renders_100(self):
        report = compute_report(["rweet", "not_rweet"], ["rweet", "not_rweet"], BINARY)
        text = render_text(report)
        assert text.count("100.00") >= 7

    def test_render_deterministic(self):
        report = compute_report(["A", "B", "A"], ["A", "B", "B"], AB)
        assert render_text(report) == render_text(report)
        assert render_record(report) == render_record(report)

    def test_record_round_trip(self):
        y = ["money", "food", "money", "cloth", "shelter", "medical", "volunteer"]
        yhat = ["money", "food", "cloth", "cloth", "shelter", "medical", "money"]
        report = compute_report(y, yhat, CATEGORICAL)
        record = json.loads(render_record(report))
        assert report_from_record(record) == report

    def test_micro_columns_equal_accuracy(self):
        report = compute_report(["A", "B", "A", "B"], ["A", "B", "B", "B"], AB)
        assert report.p_micro == report.r_micro == report.f1_micro == report.accuracy

    def test_per_class_support(self):
        report = compute_report(["A", "A", "B"], ["A", "B", "B"], AB)
        assert {pc.label: pc.support for pc in report.per_class} == {"A": 2, "B": 1}

    def test_record_keys(self):
        report = compute_report(["A", "B"], ["A", "B"], AB)
        record = asdict(report)
        assert set(record) == {
            "accuracy",
            "p_micro",
            "r_micro",
            "f1_micro",
            "p_macro",
            "r_macro",
            "f1_macro",
            "per_class",
        }


class TestReportFromConfusion:
    def test_record_matches_reference_loops(self):
        # 2,000 seeded 2-6 class matrices, about 30% zero cells, with
        # emptied rows (no actual), emptied columns (never predicted) and
        # all-zero matrices mixed in
        rng = np.random.default_rng(28)
        for k in range(2000):
            size = int(rng.integers(2, 7))
            cm = rng.integers(0, 50, size=(size, size))
            cm[rng.random((size, size)) < 0.3] = 0
            if k % 5 == 1:
                cm[int(rng.integers(size)), :] = 0
            if k % 5 == 2:
                cm[:, int(rng.integers(size))] = 0
            if k % 50 == 3:
                cm[:] = 0
            expected = reference_report(cm.tolist(), "ABCDEF"[:size])
            record = json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"
            assert render_record(report_of(cm)) == record

    def test_all_zero_matrix_reads_zero(self):
        record = json.loads(render_record(report_of([[0, 0], [0, 0]])))
        assert record == reference_report([[0, 0], [0, 0]], ("A", "B"))
        assert record["accuracy"] == record["f1_macro"] == 0.0

    @pytest.mark.parametrize(
        "cm", [[[1, 0, 0], [0, 1, 0]], [1, 2], [[[1]]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    )
    def test_shape_other_than_the_domain_rejected(self, cm):
        with pytest.raises(ValidationError, match="must be 2 x 2"):
            report_from_confusion(cm, AB)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            report_from_confusion([[1, -1], [0, 1]], AB)
