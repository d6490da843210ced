"""Accuracy, prediction-cost / speedup metrics, and the benchmark harness.

PC = optimal_exec / predit_exec: 1.0 means the predicted factor ties the
exhaustive optimum.  SP = sans_exec / predit_exec: above 1.0 means unrolling
at the predicted factor beat the no-unroll baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataset import sweep_argmin
from .errors import UnrollTunerError
from .featurize import extract_features
from .mlp import predict_class, predict_probs
from .schedule import UNROLL_FACTORS, schedule_program
from .textfmt import format_transform


def compute_metrics(predit: float, optimal: float, sans: float) -> tuple[float, float]:
    """(PC, SP) from the three measured times, exact ratios."""
    if min(predit, optimal, sans) <= 0.0:
        raise UnrollTunerError(f"times must be positive, got {(predit, optimal, sans)}")
    return optimal / predit, sans / predit


def accuracy(model, test) -> float:
    """Fraction of the rows of `test`, a `dataset.Corpus`, whose predicted
    factor equals the label.

    `model` is either a trained MlpModel, which scores every row in one
    batched pass, or any callable raw feature row -> factor.
    """
    if not len(test):
        raise UnrollTunerError("accuracy needs a non-empty test set")
    if callable(model):
        predicted = [model(row) for row in test.x]
    else:
        probs = predict_probs(model, test.x)
        predicted = [UNROLL_FACTORS[i] for i in probs.argmax(axis=1)]
    return hit_rate(predicted, test.y)


def hit_rate(predicted, labels) -> float:
    """Fraction of `labels` equal to the factor predicted for that row,
    `predicted` being in row order."""
    return sum(1 for p, label in zip(predicted, labels, strict=True) if p == label) / len(labels)


@dataclass(frozen=True)
class EvalReport:
    case: str
    size: str
    schedule: str
    predicted_factor: int
    optimal_factor: int
    predit_exec: float
    optimal_exec: float
    sans_exec: float
    pc: float
    sp: float


def _schedule_text(transforms) -> str:
    if not transforms:
        return "none"
    return "; ".join(format_transform(t) for t in transforms)


def run_benchmarks(model, backend, cases, runs: int = 1) -> list[EvalReport]:
    """Exhaustive sweep vs. model prediction for every benchmark case.

    `model` is a trained MlpModel or any callable FeatureVector -> factor.
    """
    predict = model if callable(model) else (lambda fv: predict_class(model, fv))
    reports = []
    for case in cases:
        sp = schedule_program(case.program, case.transforms)
        timing, optimal = sweep_argmin(sp, backend, runs)
        predicted = predict(extract_features(sp))
        pc, speedup = compute_metrics(timing[predicted], timing[optimal], timing[0])
        reports.append(EvalReport(
            case=case.name,
            size=case.size_class,
            schedule=_schedule_text(case.transforms),
            predicted_factor=predicted,
            optimal_factor=optimal,
            predit_exec=timing[predicted],
            optimal_exec=timing[optimal],
            sans_exec=timing[0],
            pc=pc,
            sp=speedup,
        ))
    return reports


REPORT_HEADER = "case,size,schedule,predicted,optimal,predit_ms,optimal_ms,sans_ms,pc,sp"


def report_csv(reports: list[EvalReport]) -> str:
    lines = [REPORT_HEADER]
    for r in reports:
        lines.append(
            f"{r.case},{r.size},{r.schedule},{r.predicted_factor},{r.optimal_factor},"
            f"{r.predit_exec!r},{r.optimal_exec!r},{r.sans_exec!r},"
            f"{r.pc:.3f},{r.sp:.3f}"
        )
    return "\n".join(lines) + "\n"


def report_table(reports: list[EvalReport]) -> str:
    headers = ("case", "size", "schedule", "pred", "opt",
               "predit_ms", "optimal_ms", "sans_ms", "PC", "SP")
    rows = [
        (r.case, r.size, r.schedule, str(r.predicted_factor), str(r.optimal_factor),
         f"{r.predit_exec:.6g}", f"{r.optimal_exec:.6g}", f"{r.sans_exec:.6g}",
         f"{r.pc:.3f}", f"{r.sp:.3f}")
        for r in reports
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
