"""Frame-level ROC/AUC evaluation and score export.

A split is scored in chunks of equal-length bags, one forward per chunk,
each bag's scores bit-equal to scoring it alone. A score request is a chunk
of one bag through the same lean inference pass (see ``model``), so its
frame scores equal the bag's evaluation record bit for bit. The head reads
every bag's features where they lie, so an evaluation copies no feature
bytes.

Each record expands its clip scores onto frames through the same partition
the labels use, so every frame carries the score of the clip that covers
it. The ROC area of all test videos' frames comes from a descending
threshold sweep with ties grouped per distinct score. That grouping makes
the trapezoid sum agree exactly with the Mann-Whitney pair-counting
statistic (ties weighted 1/2): both reduce to the same integer numerator
over 2 * pos * neg, whatever order the sort leaves tied scores in. It also
lets the overall area sweep clips instead of frames, exactly: a clip's
frames share one score and so one tie group, and a group reaches the
numerator only through its anomalous and normal frame totals, which each
clip carries whole as its anomalous-frame and frame counts. So the sort
holds one entry per clip, not per frame, and gives the same bits.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import ClipFeatureBag
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


def auc(scores, labels, counts=None) -> float:
    """Area under the ROC over pooled frames.

    Descending threshold sweep with one ROC point per distinct score; the
    area accumulates as an exact integer numerator, so the result equals
    (concordant + ties/2) / (pos * neg) to the last bit.

    With ``counts``, score ``i`` stands for ``counts[i]`` frames, of which
    ``labels[i]`` are anomalous: the clip form, which ``evaluate_bags`` uses.
    A clip's frames share its score, so they fall in one tie group of the
    frame-level sweep, and the sweep reads a group only through its
    anomalous and normal frame totals. The clip form sums those totals per
    group from the clips instead, so it reaches the same integer numerator
    and the same float as the frame-level call on ``np.repeat(scores,
    counts)`` with the matching frame labels, from a sort of clips, not
    frames.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n = None if counts is None else np.asarray(counts)
    shapes = [s.shape, y.shape] if n is None else [s.shape, y.shape, n.shape]
    if s.ndim != 1 or shapes.count(s.shape) != len(shapes):
        raise ValueError(f"scores, labels and any counts must be equal-length 1-d arrays, got shapes {shapes}")
    if s.size == 0:
        raise ValueError("cannot compute AUC of an empty sequence")
    if n is None:
        # one boolean temporary at a time; NaN, like any value but 0 and 1,
        # equals neither
        pos = int(np.count_nonzero(y == 1))
        neg = int(np.count_nonzero(y == 0))
        if pos + neg != y.size:
            raise ValueError("labels must be 0 or 1")
    else:
        if not (np.issubdtype(y.dtype, np.integer) and np.issubdtype(n.dtype, np.integer)):
            raise ValueError(f"labels and counts must be integers, got {y.dtype} and {n.dtype}")
        y = y.astype(np.int64, copy=False)
        n = n.astype(np.int64, copy=False)
        if not ((y >= 0) & (y <= n)).all():
            raise ValueError("labels must lie between 0 and their counts")
        pos = int(y.sum())
        neg = int(n.sum()) - pos
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if pos == 0 or neg == 0:
        raise UndefinedMetricError(f"AUC needs both classes, got {pos} positive / {neg} negative frames")

    # descending scores; each group of tied scores is counted as a whole, so
    # the order inside it does not matter and the sort need not be stable
    order = np.argsort(s)[::-1]
    ys = y[order]
    ss = s[order]
    ns = None if n is None else n[order]
    del order  # freed before reduceat widens the labels to int64
    starts = np.concatenate(([0], np.flatnonzero(ss[1:] != ss[:-1]) + 1))
    pos_per_group = np.add.reduceat(ys, starts, dtype=np.int64)
    frames_per_group = np.diff(starts, append=s.size) if ns is None else np.add.reduceat(ns, starts)
    neg_per_group = frames_per_group - pos_per_group
    tp_before = np.concatenate(([0], np.cumsum(pos_per_group)[:-1]))
    numerator = int((neg_per_group * (2 * tp_before + pos_per_group)).sum())
    return numerator / (2 * pos * neg)


def _on_frames(bag: ClipFeatureBag, clip_scores) -> np.ndarray:
    """Each clip's score repeated over that clip's frame range."""
    return clip_scores.repeat(bag.clip_frame_counts)


def _frame_labels(bag: ClipFeatureBag) -> np.ndarray:
    """A bag's frame labels; a normal video without them is normal throughout."""
    if bag.frame_labels is not None:
        return bag.frame_labels
    if bag.label == 0:
        return np.zeros(bag.num_frames, dtype=np.uint8)
    raise UndefinedMetricError(f"anomalous evaluation video {bag.video_id!r} carries no frame labels")


def score_video(bag: ClipFeatureBag, model: AnomalyScorer) -> np.ndarray:
    """Inference-mode clip scores broadcast over each clip's frame range.
    The head scores one bag as a chunk of one, the way ``evaluate_bags``
    scores its chunks (see ``hfc_forward``), from the bag's cached clip
    means. ``AnomalyScorer.check_bag`` names a bag it cannot score."""
    model.check_bag(bag, "scored")
    means = bag.clip_means if model.use_mta else None
    return _on_frames(bag, model.score_bag(bag.features, means=means).scores)


# clip rows per forward in evaluation: 8 bags at T=32. Per-bag products keep
# the GEMM time per clip fixed, so a chunk only has to spread the
# per-forward overhead. Timed on 400 bags of 32 clips at D=2048 (one BLAS
# thread, 2 vCPUs), 256 to 1024 rows ran within 4% of each other, while 128
# rows were 10% and one bag per chunk 32% slower; at D=64, 256 to 1024 rows
# were within 3%. No feature stack is built and ``auc`` sorts clips, not
# frames, so the traced peak of a whole evaluation of those 400 bags
# (154,765 frames) is 2.9 MB at 32 and 256 rows: the records' float64 frame
# scores, 1.2 MB, plus ``auc``'s temporaries over 12,800 clips, 1.0 MB. At
# 2048 rows a chunk's head temporaries (0.4 MB per 256 rows) raise it to
# 3.5 MB.
EVAL_CHUNK_ROWS = 256


def _score_split(bags: list[ClipFeatureBag],
                 model: AnomalyScorer) -> tuple[list[EvalRecord], list[np.ndarray]]:
    """Every bag's record and clip scores, in input order. Bags of one
    feature shape are scored in chunks of at most ``EVAL_CHUNK_ROWS`` clips,
    one forward per chunk that multiplies each bag alone (see
    ``hfc_forward``), so the scores equal ``score_video``'s bit for bit.
    Each shape is checked once, at its first bag, before any forward."""
    labels = [_frame_labels(b) for b in bags]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, bag in enumerate(bags):
        members = groups.get(bag.features.shape)
        if members is None:
            model.check_bag(bag, "evaluation")
            members = groups[bag.features.shape] = []
        members.append(i)
    clip_scores: list[np.ndarray | None] = [None] * len(bags)
    for (t, _), members in groups.items():
        step = max(1, EVAL_CHUNK_ROWS // t)
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            means = np.array([bags[i].clip_means for i in chunk]) if model.use_mta else None
            rows = model.score_bag([bags[i].features for i in chunk], means=means).scores
            for i, row in zip(chunk, rows):
                clip_scores[i] = row
    records = [EvalRecord(video_id=b.video_id, frame_scores=_on_frames(b, c), frame_labels=y,
                          class_name=b.class_name)
               for b, c, y in zip(bags, clip_scores, labels)]
    return records, clip_scores


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
    """Score every bag (see ``_score_split``) and pool all frames into one
    global AUC, computed in ``auc``'s clip form: each clip weighted by its
    frame count and its anomalous-frame count, which gives the area of the
    pooled frames bit for bit."""
    if not bags:
        raise UndefinedMetricError("the evaluation split holds no videos")
    records, clip_scores = _score_split(bags, model)
    overall = auc(np.concatenate(clip_scores),
                  np.concatenate([b.clip_anomalous_frame_counts for b in bags]),
                  np.concatenate([b.clip_frame_counts for b in bags]))
    return EvalResult(overall_auc=overall, records=records)


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


def export_scores_csv(path, scores, labels=None) -> Path:
    """One row per frame: ``frame_index,score,label`` (label blank if
    unknown). Labels, when given, are one per score: any other count raises
    ``ValueError`` before the file is opened."""
    path = Path(path)
    scores = np.asarray(scores, dtype=np.float64)
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != scores.shape:
            raise ValueError(f"need one label per score, got {labels.shape} labels for {scores.shape} scores")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_index", "score", "label"])
        for i, s in enumerate(scores):
            writer.writerow([i, repr(float(s)), "" if labels is None else int(labels[i])])
    return path
