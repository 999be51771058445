"""Training objective: selected-instance log loss + temporal smoothness +
an antagonistic top-1 term that drives the two bags' peak scores apart.

Each term is computed per pair, for one pair (scores (T,)) or a batch of B
pairs ((B, T)); the objective is their mean over the pairs."""

from __future__ import annotations

from dataclasses import dataclass, field

from .autodiff import adjacent_diff, value
from .selection import ScoreBagPair, SelectionResult, ais_loss


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
    d = adjacent_diff(scores)
    n = value(scores).shape[-1] - 1
    return (d * d).sum(axis=-1) * (1.0 / n)


def antagonistic_loss(pos_scores, neg_scores):
    """Top-1 separation pressure, written as three pulls: widen the gap
    between the best positive and best negative score, push the best
    negative down, and pull the best positive up. Ranges over [0, 4]."""
    p = pos_scores.max(axis=-1)
    n = neg_scores.max(axis=-1)
    return (1.0 - (p - n)) + n + (1.0 - p)


def sparsity_loss(pos_scores):
    """Mean positive-bag score; logged as a diagnostic, not part of the sum."""
    return pos_scores.mean(axis=-1)


def total_loss(pair: ScoreBagPair, sel: SelectionResult, cfg: LossConfig = LossConfig()) -> LossBreakdown:
    """Assemble the objective; every term is reported even when it is not
    part of the sum."""
    ais = ais_loss(pair, sel)
    smooth = smooth_loss(pair.pos_scores)
    antagonistic = antagonistic_loss(pair.pos_scores, pair.neg_scores)
    sparsity = sparsity_loss(pair.pos_scores)

    total = ais + smooth
    if cfg.use_antagonistic:
        total = total + antagonistic

    def mean(term) -> float:
        v = value(term)
        return float(v.sum()) / v.size

    return LossBreakdown(
        ais=mean(ais),
        smooth=mean(smooth),
        antagonistic=mean(antagonistic),
        sparsity=mean(sparsity),
        total=mean(total),
        node=total.mean(),
    )
