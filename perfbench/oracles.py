"""Reference computations the benchmark checks the package against.

They are written independently of wsvad's own code paths: the AUC comes
from the rank-sum (Mann-Whitney U) statistic rather than a threshold sweep,
and the parameter count is spelled out layer by layer.
"""

from __future__ import annotations

import numpy as np

PAPER_FEATURE_DIM = 2048
PAPER_PARAMETER_COUNT = 139_595


def rank_sum_auc(scores, labels) -> float:
    """AUC as (R_pos - P(P+1)/2) / (P N), with tied scores sharing their
    mean rank. Doubled ranks are integers, so the numerator is exact."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    starts = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    ends = np.r_[starts[1:], s.size]
    # 1-based ranks start+1 .. end share the mean (start + 1 + end) / 2
    doubled_group_rank = starts + 1 + ends
    doubled_rank = np.empty(s.size, dtype=np.int64)
    doubled_rank[order] = np.repeat(doubled_group_rank, ends - starts)
    pos = int(y.sum())
    neg = int(y.size - pos)
    doubled_u = int(doubled_rank[y].sum()) - pos * (pos + 1)
    return doubled_u / (2 * pos * neg)


def frame_score_problem(frame_scores, num_frames: int) -> str | None:
    """Why a video's frame scores are invalid, or None when they are fine."""
    s = np.asarray(frame_scores)
    if s.shape != (num_frames,):
        return f"shape {s.shape}, expected ({num_frames},)"
    if not np.isfinite(s).all():
        return "non-finite frame score"
    if s.min() < 0.0 or s.max() > 1.0:
        return f"frame score outside [0, 1]: min {s.min()!r} max {s.max()!r}"
    return None


def expected_parameter_count(feature_dim: int, k_max: int = 5, narrow: int = 64, wide: int = 128) -> int:
    """Attention kernels of widths k_max, k_max-2, ..., 3 (weights + bias)
    plus the hourglass head D -> narrow -> wide -> 1 (weights + biases)."""
    attention = sum(k + 1 for k in range(3, k_max + 1, 2))
    head = (feature_dim * narrow + narrow) + (narrow * wide + wide) + (wide + 1)
    return attention + head
