"""Confusion matrices, micro/macro precision-recall-F1, and accuracy.

Micro averages pool true/false positives over all labels before dividing;
for single-label prediction this makes micro precision, micro recall, micro
F1, and accuracy identical. Macro averages are unweighted per-class means,
and macro F1 is the harmonic mean OF THE AVERAGED precision and recall, not
the mean of per-class F1 scores. Undefined 0/0 cells evaluate to 0.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .base import check_equal_length
from .corpus import LabelDomain
from .errors import ValidationError


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def confusion(y_true, y_pred, domain: LabelDomain) -> np.ndarray:
    """|L| x |L| count matrix; rows are actual labels, columns predicted."""
    check_equal_length("y_true", y_true, "y_pred", y_pred)
    size = len(domain.labels)
    cm = np.zeros((size, size), dtype=np.int64)
    for actual, predicted in zip(y_true, y_pred):
        cm[domain.index(actual), domain.index(predicted)] += 1
    return cm


def _check_cm(cm: np.ndarray) -> np.ndarray:
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValidationError("confusion matrix must be square")
    if np.any(cm < 0):
        raise ValidationError("confusion matrix entries must be nonnegative")
    return cm


def accuracy(cm) -> float:
    """Correctly predicted over total."""
    cm = _check_cm(cm)
    return _safe_div(float(np.trace(cm)), float(cm.sum()))


def micro_metrics(cm) -> tuple[float, float, float]:
    cm = _check_cm(cm)
    tp = float(np.trace(cm))
    fp = float(cm.sum(axis=0).sum() - np.trace(cm))
    fn = float(cm.sum(axis=1).sum() - np.trace(cm))
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    return precision, recall, f1


def macro_metrics(cm) -> tuple[float, float, float]:
    cm = _check_cm(cm)
    per_p = [_safe_div(float(cm[i, i]), float(cm[:, i].sum())) for i in range(cm.shape[0])]
    per_r = [_safe_div(float(cm[i, i]), float(cm[i, :].sum())) for i in range(cm.shape[0])]
    precision = sum(per_p) / len(per_p)
    recall = sum(per_r) / len(per_r)
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    return precision, recall, f1


@dataclass(frozen=True)
class PerClassMetrics:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    p_micro: float
    r_micro: float
    f1_micro: float
    p_macro: float
    r_macro: float
    f1_macro: float
    per_class: tuple[PerClassMetrics, ...]


def compute_report(y_true, y_pred, domain: LabelDomain) -> MetricsReport:
    cm = confusion(y_true, y_pred, domain)
    return report_from_confusion(cm, domain)


def report_from_confusion(cm, domain: LabelDomain) -> MetricsReport:
    cm = _check_cm(cm)
    if cm.shape[0] != len(domain.labels):
        raise ValidationError("confusion matrix size disagrees with label domain")
    p_mi, r_mi, f_mi = micro_metrics(cm)
    p_ma, r_ma, f_ma = macro_metrics(cm)
    per_class = []
    for i, label in enumerate(domain.labels):
        p = _safe_div(float(cm[i, i]), float(cm[:, i].sum()))
        r = _safe_div(float(cm[i, i]), float(cm[i, :].sum()))
        per_class.append(
            PerClassMetrics(
                label=label,
                precision=p,
                recall=r,
                f1=_safe_div(2.0 * p * r, p + r),
                support=int(cm[i, :].sum()),
            )
        )
    return MetricsReport(
        accuracy=accuracy(cm),
        p_micro=p_mi,
        r_micro=r_mi,
        f1_micro=f_mi,
        p_macro=p_ma,
        r_macro=r_ma,
        f1_macro=f_ma,
        per_class=tuple(per_class),
    )


# --- rendering --------------------------------------------------------------


def _pct(value: float) -> str:
    return f"{value * 100:.2f}"


def render_text(report: MetricsReport) -> str:
    """Human-readable table; percentages with two decimals."""
    lines = [
        "metric        micro    macro",
        f"precision    {_pct(report.p_micro):>6}   {_pct(report.p_macro):>6}",
        f"recall       {_pct(report.r_micro):>6}   {_pct(report.r_macro):>6}",
        f"f1           {_pct(report.f1_micro):>6}   {_pct(report.f1_macro):>6}",
        f"accuracy     {_pct(report.accuracy):>6}",
        "",
        "class          precision   recall       f1  support",
    ]
    for pc in report.per_class:
        lines.append(
            f"{pc.label:<14} {_pct(pc.precision):>9} {_pct(pc.recall):>8} "
            f"{_pct(pc.f1):>8} {pc.support:>8}"
        )
    return "\n".join(lines) + "\n"


def report_to_record(report: MetricsReport) -> dict:
    """Machine-readable form with fixed keys; floats kept at full precision."""
    return asdict(report)


def render_record(report: MetricsReport) -> str:
    """Deterministic JSON serialization of the machine record."""
    return json.dumps(report_to_record(report), sort_keys=True, separators=(",", ":")) + "\n"
