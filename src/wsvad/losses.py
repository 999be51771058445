"""Training objective: selected-instance log loss + temporal smoothness +
an antagonistic top-1 term that drives the two bags' peak scores apart.

Each term is computed per pair, for one pair (scores (T,)) or a batch of B
pairs ((B, T)); the objective is their mean over the pairs. ``total_loss``
is the step's last graph op: its backward is written out by hand below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import DimensionError, Tensor, note_kink_margin
from .selection import AIS_EPS, ScoreBagPair, SelectionResult, ais_loss, selected_means


@dataclass(frozen=True)
class LossConfig:
    use_antagonistic: bool = True


@dataclass
class LossBreakdown:
    """Per-term means over the pairs; ``total`` sums only the enabled terms.

    ``node`` carries the graph tensor behind ``total`` so callers can run
    backward; the float fields are for logging.
    """

    ais: float
    smooth: float
    antagonistic: float
    sparsity: float
    total: float
    node: object = field(default=None, repr=False, compare=False)


def smooth_loss(scores):
    """Mean squared step between consecutive scores; 0 iff constant."""
    if scores.shape[-1] < 2:
        raise DimensionError(f"smoothness needs at least 2 clips, got shape {scores.shape}")
    d = np.diff(scores)
    return (d * d).sum(axis=-1) * (1.0 / d.shape[-1])


def _peak(scores):
    """Largest score per sequence, reporting the gap to the runner-up to
    an active kink recorder."""
    if scores.shape[-1] >= 2:
        def gap():
            top2 = np.partition(scores, -2, axis=-1)[..., -2:]
            return (top2[..., 1] - top2[..., 0]).min()

        note_kink_margin(gap)
    return scores.max(axis=-1)


def antagonistic_loss(pos_scores, neg_scores):
    """Top-1 separation pressure, written as three pulls: widen the gap
    between the best positive and best negative score, push the best
    negative down, and pull the best positive up. Ranges over [0, 4]."""
    p = _peak(np.asarray(pos_scores))
    n = _peak(np.asarray(neg_scores))
    return (1.0 - (p - n)) + n + (1.0 - p)


def sparsity_loss(pos_scores):
    """Mean positive-bag score; logged as a diagnostic, not part of the sum."""
    return pos_scores.sum(axis=-1) / pos_scores.shape[-1]


def total_loss(scores: Tensor, sel: SelectionResult, cfg: LossConfig = LossConfig()) -> LossBreakdown:
    """Assemble the objective over the scores of one pair (2, T) or B pairs
    (B, 2, T), each pair's positive bag first; every term is reported even
    when it is not part of the sum.

    ``node`` is the mean of the enabled terms over the pairs as a graph node
    over ``scores``; the selection ``sel`` is a constant of it.
    """
    s = scores.data
    pair = ScoreBagPair(s[..., 0, :], s[..., 1, :])
    pos, neg = pair.pos_scores, pair.neg_scores
    ais = ais_loss(pair, sel)
    smooth = smooth_loss(pos)
    antagonistic = antagonistic_loss(pos, neg)
    sparsity = sparsity_loss(pos)

    total = ais + smooth
    if cfg.use_antagonistic:
        total = total + antagonistic

    def mean(term) -> float:
        return float(term.sum()) / term.size

    def grad_fn(g):
        # every pair's terms receive g / B; the positive scores sum the
        # AIS, smoothness and antagonistic gradients in that order, which
        # fixes the float result
        g = np.broadcast_to(g / total.size, total.shape)
        m_p, m_n = selected_means(pair, sel)
        inv_k = 1.0 / np.asarray(sel.k, dtype=np.float64)
        g_ais = g * -1.0
        g_pos = np.expand_dims(g_ais / (m_p + AIS_EPS) * inv_k, -1) * sel.pos_mask
        g_neg = np.expand_dims(-(g_ais / ((1.0 - m_n) + AIS_EPS)) * inv_k, -1) * sel.neg_mask

        d = np.diff(pos)
        g_d = np.expand_dims(g * (1.0 / d.shape[-1]), -1) * d
        g_d = g_d + g_d  # each factor of d * d passes g * d
        g_smooth = np.zeros_like(pos)
        g_smooth[..., 1:] += g_d
        g_smooth[..., :-1] -= g_d
        g_pos = g_pos + g_smooth

        if cfg.use_antagonistic:
            # d/dp of (1 - (p - n)) + n + (1 - p) is -2, d/dn is +2
            for g_bag, bag, sign in ((g_pos, pos, -1.0), (g_neg, neg, 1.0)):
                peak = np.expand_dims(np.argmax(bag, axis=-1), -1)
                top = np.take_along_axis(g_bag, peak, axis=-1) + sign * (g + g)[..., None]
                np.put_along_axis(g_bag, peak, top, axis=-1)

        grad = np.empty_like(s)
        grad[..., 0, :] = g_pos
        grad[..., 1, :] = g_neg
        return (grad,)

    return LossBreakdown(
        ais=mean(ais),
        smooth=mean(smooth),
        antagonistic=mean(antagonistic),
        sparsity=mean(sparsity),
        total=mean(total),
        node=Tensor(total.sum() / total.size, (scores,), grad_fn),
    )
