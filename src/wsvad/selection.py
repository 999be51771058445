"""Adaptive instance selection.

A MIL step sees positive (anomalous) and negative (normal) bags in pairs.
The selector estimates how far training has progressed from each pair's
two score sequences alone, converts that confidence into an instance budget
K, and marks the K clips with the largest feature magnitude in each bag.
Every function takes one pair (scores shaped (T,)) or a batch of B pairs
((B, T)), with K free to differ between pairs. The selection itself is
score-free bookkeeping: the objective (``losses.total_loss``) holds omega,
K and the chosen clips fixed and differentiates the AIS term through the
selected scores only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ConfigurationError


AIS_EPS = 1e-7


@dataclass(frozen=True)
class SelectionConfig:
    threshold: float = 0.9            # positive scores at/above this count as confident
    adaptive: bool = True             # False pins K = 1 (classic top-1 MIL)

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigurationError(f"threshold must be in (0, 1], got {self.threshold}")


@dataclass
class ScoreBagPair:
    """Clip scores, and the clip magnitudes selection ranks by, for one
    positive/negative pair (T,) or B pairs (B, T)."""

    pos_scores: np.ndarray
    neg_scores: np.ndarray
    pos_magnitudes: np.ndarray | None = None
    neg_magnitudes: np.ndarray | None = None


@dataclass(frozen=True)
class SelectionResult:
    """omega and K (scalars, or one per pair) and the masks of the selected
    clips in each bag (shaped like the scores)."""

    omega: float | np.ndarray
    k: int | np.ndarray
    pos_mask: np.ndarray
    neg_mask: np.ndarray


def confidence(pair: ScoreBagPair):
    """Training maturity in [0, 1], per pair.

    High when the negative bag's scores sit near zero and both score
    sequences vary little between neighbouring clips; raw values below 0 or
    above 1 clamp to the ends.
    """
    sn = np.asarray(pair.neg_scores)
    sp = np.asarray(pair.pos_scores)
    if sn.ndim not in (1, 2) or sp.shape != sn.shape:
        raise ValueError(f"score sequences must be 1-d and equally long, got {sp.shape} and {sn.shape}")
    t = sn.shape[-1]
    if t < 2:
        raise ValueError(f"confidence needs at least 2 clips, got {t}")
    roughness = np.abs(np.diff(sn)).sum(axis=-1) + np.abs(np.diff(sp)).sum(axis=-1)
    raw = 1.0 - sn.mean(axis=-1) - roughness / (2 * t - 2)
    omega = np.clip(raw, 0.0, 1.0)
    return float(omega) if omega.ndim == 0 else omega


def adaptive_k(omega, pos_scores, threshold: float = 0.9):
    """Instance budget: confidence times the count of confident positive
    scores, rounded half-up, clamped to [1, T]; one per pair."""
    sp = np.asarray(pos_scores)
    count = (sp >= threshold).sum(axis=-1)
    k = np.clip(np.floor(np.asarray(omega) * count + 0.5).astype(np.int64), 1, sp.shape[-1])
    return int(k) if k.ndim == 0 else k


def topk_by_magnitude(features, k: int) -> tuple[int, ...]:
    """Indices of the k rows with the largest L2 norm, descending; ties keep
    the lower index first."""
    feats = np.asarray(features)
    if feats.ndim != 2:
        raise ValueError(f"features must be 2-d, got shape {feats.shape}")
    if not 1 <= k <= feats.shape[0]:
        raise ValueError(f"k must be in [1, {feats.shape[0]}], got {k}")
    norms = np.linalg.norm(feats, axis=1)
    order = np.argsort(-norms, kind="stable")
    return tuple(int(i) for i in order[:k])


def topk_mask(magnitudes, k) -> np.ndarray:
    """Mask of the k largest magnitudes along the last axis, k one per row;
    ties go to the lower index, as in ``topk_by_magnitude``."""
    order = np.argsort(-np.asarray(magnitudes), axis=-1, kind="stable")
    rank = np.argsort(order, axis=-1)
    return rank < np.expand_dims(k, -1)


def select(pair: ScoreBagPair, cfg: SelectionConfig = SelectionConfig()) -> SelectionResult:
    """Full selection for one pair or a batch of pairs; with ``cfg.adaptive``
    off, K pins to 1 and the step reduces to classic top-1 MIL."""
    omega = confidence(pair)
    if cfg.adaptive:
        k = adaptive_k(omega, pair.pos_scores, cfg.threshold)
    else:
        k = 1 if np.ndim(omega) == 0 else np.ones(np.shape(omega), dtype=np.int64)
    return SelectionResult(
        omega=omega,
        k=k,
        pos_mask=topk_mask(pair.pos_magnitudes, k),
        neg_mask=topk_mask(pair.neg_magnitudes, k),
    )


def ais_loss(pair: ScoreBagPair, sel: SelectionResult):
    """Negative log-likelihood of the selected mean scores, per pair: pushes
    the positive bag's selected mean toward 1 and the negative bag's toward
    0. ``AIS_EPS`` keeps both logs finite at the score boundaries."""
    m_p, m_n = selected_means(pair, sel)
    return -(np.log(m_p + AIS_EPS) + np.log((1.0 - m_n) + AIS_EPS))


def selected_means(pair: ScoreBagPair, sel: SelectionResult):
    """Mean score of the selected clips of the positive and of the negative
    bag, per pair."""
    inv_k = 1.0 / np.asarray(sel.k, dtype=np.float64)
    m_p = (pair.pos_scores * sel.pos_mask).sum(axis=-1) * inv_k
    m_n = (pair.neg_scores * sel.neg_mask).sum(axis=-1) * inv_k
    return m_p, m_n
