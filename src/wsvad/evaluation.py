"""Frame-level ROC/AUC evaluation and score export.

Clip scores expand onto frames through the same partition the labels use,
all test videos' frames are pooled, and the ROC area comes from a descending
threshold sweep with ties grouped per distinct score. That grouping makes
the trapezoid sum agree exactly with the Mann-Whitney pair-counting
statistic (ties weighted 1/2): both reduce to the same integer numerator
over 2 * pos * neg.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import ClipFeatureBag, clip_frame_bounds
from .model import AnomalyScorer


class UndefinedMetricError(ValueError):
    """The requested metric needs both classes present."""


@dataclass
class EvalRecord:
    video_id: str
    frame_scores: np.ndarray
    frame_labels: np.ndarray
    class_name: str | None = None


@dataclass
class EvalResult:
    overall_auc: float
    records: list[EvalRecord] = field(repr=False)

    @cached_property
    def per_class(self) -> dict[str, float]:
        """AUC per anomaly class (see ``per_class_auc``), computed on first
        access: training reads only the overall AUC."""
        return per_class_auc(self.records)


def auc(scores, labels) -> float:
    """Area under the ROC over pooled frames.

    Descending threshold sweep with one ROC point per distinct score; the
    area accumulates as an exact integer numerator, so the result equals
    (concordant + ties/2) / (pos * neg) to the last bit.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or y.shape != s.shape:
        raise ValueError(f"scores and labels must be equal-length 1-d arrays, got {s.shape} and {y.shape}")
    if s.size == 0:
        raise ValueError("cannot compute AUC of an empty sequence")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    pos = int(np.count_nonzero(y))
    neg = int(y.size - pos)
    if pos == 0 or neg == 0:
        raise UndefinedMetricError(f"AUC needs both classes, got {pos} positive / {neg} negative frames")

    # descending scores; each group of tied scores is counted as a whole, so
    # the order inside it does not matter
    order = np.argsort(s, kind="stable")[::-1]
    ys = y[order]
    ss = s[order]
    del order  # freed before reduceat widens the labels to int64
    starts = np.concatenate(([0], np.flatnonzero(ss[1:] != ss[:-1]) + 1))
    pos_per_group = np.add.reduceat(ys, starts, dtype=np.int64)
    neg_per_group = np.diff(starts, append=s.size) - pos_per_group
    tp_before = np.concatenate(([0], np.cumsum(pos_per_group)[:-1]))
    numerator = int((neg_per_group * (2 * tp_before + pos_per_group)).sum())
    return numerator / (2 * pos * neg)


def score_video(bag: ClipFeatureBag, model: AnomalyScorer) -> np.ndarray:
    """Inference-mode clip scores broadcast over each clip's frame range."""
    clip_scores, _ = model.score_bag(bag.features)
    clip_scores = np.asarray(clip_scores, dtype=np.float64)
    bounds = clip_frame_bounds(bag.num_clips, bag.num_frames)
    return np.repeat(clip_scores, np.diff(bounds))


def record_for_bag(bag: ClipFeatureBag, model: AnomalyScorer) -> EvalRecord:
    if bag.frame_labels is not None:
        labels = bag.frame_labels
    elif bag.label == 0:
        labels = np.zeros(bag.num_frames, dtype=np.uint8)
    else:
        raise UndefinedMetricError(
            f"anomalous evaluation video {bag.video_id!r} carries no frame labels"
        )
    return EvalRecord(
        video_id=bag.video_id,
        frame_scores=score_video(bag, model),
        frame_labels=labels,
        class_name=bag.class_name,
    )


def per_class_auc(records: list[EvalRecord]) -> dict[str, float]:
    """AUC per anomaly class: each class's videos pooled with every record
    that has no class annotation (the normal pool). Classes whose videos
    contain no anomalous frames are skipped with a warning."""
    normal_scores = [r.frame_scores for r in records if r.class_name is None]
    normal_labels = [r.frame_labels for r in records if r.class_name is None]
    out: dict[str, float] = {}
    classes = sorted({r.class_name for r in records if r.class_name is not None})
    for cls in classes:
        cls_records = [r for r in records if r.class_name == cls]
        scores = np.concatenate([r.frame_scores for r in cls_records] + normal_scores)
        labels = np.concatenate([r.frame_labels for r in cls_records] + normal_labels)
        if int(np.asarray(labels).sum()) == 0:
            warnings.warn(f"class {cls!r} has no anomalous frames; skipped", stacklevel=2)
            continue
        out[cls] = auc(scores, labels)
    return out


def evaluate_bags(bags: list[ClipFeatureBag], model: AnomalyScorer) -> EvalResult:
    """Score every bag in order and pool all frames into one global AUC."""
    records = [record_for_bag(b, model) for b in bags]
    scores = np.concatenate([r.frame_scores for r in records])
    labels = np.concatenate([r.frame_labels for r in records])
    return EvalResult(overall_auc=auc(scores, labels), records=records)


def per_video_auc(records: list[EvalRecord]) -> float:
    """Alternate protocol: mean AUC over videos that contain both classes."""
    per_video = []
    for r in records:
        labels = np.asarray(r.frame_labels)
        if 0 < int(labels.sum()) < labels.size:
            per_video.append(auc(r.frame_scores, r.frame_labels))
    if not per_video:
        raise UndefinedMetricError("no video contains both anomalous and normal frames")
    return float(np.mean(per_video))


def export_scores_csv(path, scores, labels=None, video_id: str | None = None) -> Path:
    """One row per frame: ``frame_index,score,label`` (label blank if unknown)."""
    path = Path(path)
    scores = np.asarray(scores, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_index", "score", "label"])
        for i, s in enumerate(scores):
            label = "" if labels is None else int(np.asarray(labels)[i])
            writer.writerow([i, repr(float(s)), label])
    return path
