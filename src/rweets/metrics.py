"""Confusion matrices and the metrics report derived from them.

`report_from_confusion` checks a count matrix once and computes each class's
precision and recall once; every other figure comes from those and the
matrix's sums. Micro P, R and F1 equal accuracy for single-label prediction
(F1 stays 2PR/(P+R), which may differ in the last bit). Macro F1 is the
harmonic mean OF THE AVERAGED precision and recall, not the mean of per-class
F1 scores. Undefined 0/0 cells evaluate to 0.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import LabelDomain
from .errors import ValidationError, check_equal_length


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
    """Every figure of the report, from a matrix laid out as `confusion`'s."""
    cm, size = np.asarray(cm), len(domain.labels)
    if cm.shape != (size, size):
        raise ValidationError(f"confusion matrix must be {size} x {size}, one row per label")
    if not np.issubdtype(cm.dtype, np.integer):
        raise ValidationError(f"confusion matrix entries must be integer counts, not {cm.dtype}")
    if np.any(cm < 0):
        raise ValidationError("confusion matrix entries must be nonnegative")
    trace, predicted, actual = np.trace(cm), cm.sum(axis=0), cm.sum(axis=1)
    tp = float(trace)
    p_micro = _safe_div(tp, tp + float(predicted.sum() - trace))
    r_micro = _safe_div(tp, tp + float(actual.sum() - trace))
    per_p = [_safe_div(float(cm[i, i]), float(n)) for i, n in enumerate(predicted)]
    per_r = [_safe_div(float(cm[i, i]), float(n)) for i, n in enumerate(actual)]
    p_macro = sum(per_p) / len(per_p)
    r_macro = sum(per_r) / len(per_r)
    return MetricsReport(
        accuracy=_safe_div(tp, float(cm.sum())),
        p_micro=p_micro,
        r_micro=r_micro,
        f1_micro=_safe_div(2.0 * p_micro * r_micro, p_micro + r_micro),
        p_macro=p_macro,
        r_macro=r_macro,
        f1_macro=_safe_div(2.0 * p_macro * r_macro, p_macro + r_macro),
        per_class=tuple(
            PerClassMetrics(label, p, r, _safe_div(2.0 * p * r, p + r), int(n))
            for label, p, r, n in zip(domain.labels, per_p, per_r, actual)
        ),
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


def render_record(report: MetricsReport) -> str:
    """Deterministic JSON of `dataclasses.asdict(report)`; floats at full precision."""
    return json.dumps(asdict(report), sort_keys=True, separators=(",", ":")) + "\n"
