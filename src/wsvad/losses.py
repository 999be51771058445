"""Training objective: selected-instance log loss (the AIS term) +
temporal smoothness + an antagonistic top-1 term that drives the two bags'
peak scores apart.

Scores are shaped (2, ..., T), class first (the positive bags, then their
negative partners), as in ``selection``. Each term is computed per pair and
the objective is their mean over the pairs. ``total_loss`` is the step's
last graph op: its backward is written out by hand below, next to the terms
it differentiates. A negative bag's scores get a nonzero gradient only at
its selected clips and its peak clip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import DimensionError, Tensor, note_kink_margin
from .selection import SelectionResult

AIS_EPS = 1e-7


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


def selected_means(scores, sel: SelectionResult):
    """Mean score of the selected clips of each bag, shaped (2, ...)."""
    inv_k = 1.0 / np.asarray(sel.k, dtype=np.float64)
    return (scores * sel.mask).sum(axis=-1) * inv_k


def ais_loss(scores, sel: SelectionResult):
    """Negative log-likelihood of the selected mean scores, per pair: pushes
    the positive bag's selected mean toward 1 and the negative bag's toward
    0. ``AIS_EPS`` keeps both logs finite at the score boundaries."""
    m = selected_means(scores, sel)
    return -(np.log(m[0] + AIS_EPS) + np.log((1.0 - m[1]) + AIS_EPS))


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
    """Assemble the objective over (2, ..., T) scores; every term is
    reported even when it is not part of the sum.

    ``node`` is the mean of the enabled terms over the pairs as a graph node
    over ``scores``, with no parameters of its own; the selection ``sel`` is
    a constant of it.
    """
    s = scores.data
    pos, neg = s[0], s[1]
    ais = ais_loss(s, sel)
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
        m = selected_means(s, sel)
        inv_k = 1.0 / np.asarray(sel.k, dtype=np.float64)
        g_ais = g * -1.0
        coef = np.stack([g_ais / (m[0] + AIS_EPS), -(g_ais / ((1.0 - m[1]) + AIS_EPS))])
        grad = np.expand_dims(coef * inv_k, -1) * sel.mask

        d = np.diff(pos)
        g_d = np.expand_dims(g * (1.0 / d.shape[-1]), -1) * d
        g_d = g_d + g_d  # each factor of d * d passes g * d
        g_smooth = np.zeros_like(pos)
        g_smooth[..., 1:] += g_d
        g_smooth[..., :-1] -= g_d
        grad[0] += g_smooth

        if cfg.use_antagonistic:
            # d/dp of (1 - (p - n)) + n + (1 - p) is -2, d/dn is +2
            peak = np.expand_dims(np.argmax(s, axis=-1), -1)
            pull = np.stack([-(g + g), g + g])[..., None]
            np.put_along_axis(grad, peak, np.take_along_axis(grad, peak, axis=-1) + pull, axis=-1)
        return grad, {}

    return LossBreakdown(
        ais=mean(ais),
        smooth=mean(smooth),
        antagonistic=mean(antagonistic),
        sparsity=mean(sparsity),
        total=mean(total),
        node=Tensor(total.sum() / total.size, (scores,), grad_fn),
    )
