"""Adaptive instance selection.

A MIL step sees positive (anomalous) and negative (normal) bags in pairs.
The selector estimates how far training has progressed from each pair's
two score sequences alone, converts that confidence into an instance budget
K, and marks the K clips with the largest feature magnitude in each bag.
Scores, magnitudes and the selected-clip mask are shaped (2, ..., T),
class first: the positive bags, then their negative partners, for one pair
(2, T) or a batch of B pairs (2, B, T), with K free to differ between
pairs. The selection itself is score-free bookkeeping: the objective
(``losses.total_loss``) holds omega, K and the chosen clips fixed and
differentiates the AIS term through the selected scores only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ConfigurationError


@dataclass(frozen=True)
class SelectionConfig:
    threshold: float = 0.9            # positive scores at/above this count as confident
    adaptive: bool = True             # False pins K = 1 (classic top-1 MIL)

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigurationError(f"threshold must be in (0, 1], got {self.threshold}")


@dataclass(frozen=True)
class SelectionResult:
    """omega and K, one per pair (0-d for one pair), and the mask of the
    selected clips, shaped like the scores."""

    omega: np.ndarray
    k: np.ndarray
    mask: np.ndarray


def confidence(scores) -> np.ndarray:
    """Training maturity in [0, 1], per pair of (2, ..., T) scores.

    High when the negative bag's scores sit near zero and both score
    sequences vary little between neighbouring clips; raw values below 0 or
    above 1 clamp to the ends.
    """
    s = np.asarray(scores)
    if s.ndim < 2 or s.shape[0] != 2:
        raise ValueError(f"scores must be shaped (2, ..., T), one row per bag of a pair, got {s.shape}")
    t = s.shape[-1]
    if t < 2:
        raise ValueError(f"confidence needs at least 2 clips, got {t}")
    rough = np.abs(np.diff(s)).sum(axis=-1)
    raw = 1.0 - s[1].mean(axis=-1) - (rough[1] + rough[0]) / (2 * t - 2)
    return np.clip(raw, 0.0, 1.0)


def adaptive_k(omega, pos_scores, threshold: float = 0.9) -> np.ndarray:
    """Instance budget: confidence times the count of confident positive
    scores, rounded half-up, clamped to [1, T]; one per pair."""
    sp = np.asarray(pos_scores)
    count = (sp >= threshold).sum(axis=-1)
    return np.clip(np.floor(np.asarray(omega) * count + 0.5).astype(np.int64), 1, sp.shape[-1])


def topk_mask(magnitudes, k) -> np.ndarray:
    """Mask of the k largest magnitudes along the last axis, with k
    broadcast over the rows: one per row, or one per pair of a (2, B, T)
    stack; ties go to the lower index."""
    order = np.argsort(-np.asarray(magnitudes), axis=-1, kind="stable")
    rank = np.argsort(order, axis=-1)
    return rank < np.expand_dims(k, -1)


def select(scores, magnitudes, cfg: SelectionConfig = SelectionConfig()) -> SelectionResult:
    """Full selection over (2, ..., T) scores and the clip magnitudes that
    rank them; both bags of a pair keep the pair's K clips. With
    ``cfg.adaptive`` off, K pins to 1 and the step reduces to classic top-1
    MIL."""
    omega = confidence(scores)
    if cfg.adaptive:
        k = adaptive_k(omega, np.asarray(scores)[0], cfg.threshold)
    else:
        k = np.ones(omega.shape, dtype=np.int64)
    return SelectionResult(omega=omega, k=k, mask=topk_mask(magnitudes, k))
