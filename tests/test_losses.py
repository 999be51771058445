"""Objective terms: smoothness, antagonistic separation, sparsity, assembly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from references import leaf
from wsvad.autodiff import DimensionError, Tensor, backward
from wsvad.losses import (
    LossConfig,
    antagonistic_loss,
    smooth_loss,
    sparsity_loss,
    total_loss,
)
from wsvad.selection import SelectionResult, topk_mask

scores_strategy = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=16).map(np.array)


def _t(values):
    return np.asarray(values, dtype=np.float64)


# ---------------------------------------------------------------------------
# smoothness


class TestSmoothLoss:
    def test_constant_scores_cost_nothing(self):
        assert float(smooth_loss(_t([0.4, 0.4, 0.4, 0.4]))) == 0.0

    def test_spike_hand_example(self):
        # diffs (1, -1), squared sum 2, over T-1 = 2 steps
        assert float(smooth_loss(_t([0.0, 1.0, 0.0]))) == pytest.approx(1.0, abs=1e-12)

    def test_ramp_hand_example(self):
        # diffs (0.5, 0.5), squared sum 0.5, over 2 steps
        assert float(smooth_loss(_t([0.0, 0.5, 1.0]))) == pytest.approx(0.25, abs=1e-12)

    def test_single_clip_rejected(self):
        with pytest.raises((ValueError, DimensionError)):
            smooth_loss(_t([0.5]))

    @settings(max_examples=80, deadline=None)
    @given(scores=st.lists(st.floats(0.0, 1.0).map(lambda x: round(x, 6)),
                           min_size=2, max_size=16).map(np.array))
    def test_nonnegative_and_zero_iff_constant(self, scores):
        # scores quantized to 1e-6 so squared steps cannot underflow to zero
        v = float(smooth_loss(_t(scores)))
        assert v >= 0.0
        if np.all(scores == scores[0]):
            assert v == 0.0
        else:
            assert v > 0.0


# ---------------------------------------------------------------------------
# antagonistic separation


class TestAntagonisticLoss:
    def test_perfect_separation_is_zero(self):
        v = float(antagonistic_loss(_t([1.0, 0.3]), _t([0.0, 0.0])))
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_indifferent_peaks_cost_two(self):
        v = float(antagonistic_loss(_t([0.5, 0.1]), _t([0.5, 0.2])))
        assert v == pytest.approx(2.0, abs=1e-12)

    def test_inverted_peaks_cost_four(self):
        v = float(antagonistic_loss(_t([0.0, 0.0]), _t([1.0, 0.9])))
        assert v == pytest.approx(4.0, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(pos=scores_strategy, neg=scores_strategy)
    def test_range_is_zero_to_four(self, pos, neg):
        v = float(antagonistic_loss(_t(pos), _t(neg)))
        assert -1e-12 <= v <= 4.0 + 1e-12

    def test_equals_two_minus_twice_gap(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pos, neg = rng.uniform(size=6), rng.uniform(size=6)
            v = float(antagonistic_loss(_t(pos), _t(neg)))
            assert v == pytest.approx(2.0 - 2.0 * (pos.max() - neg.max()), abs=1e-12)

    def test_gradient_signs(self):
        # descent must push the peak positive score up, peak negative down:
        # the term adds its gradient to the objective's at the two peaks only
        scores = np.array([[0.6, 0.2], [0.1, 0.4]])
        sel = SelectionResult(omega=1.0, k=1, mask=_first_clips(2))
        grads = []
        for cfg in (LossConfig(), LossConfig(use_antagonistic=False)):
            p = leaf(scores, "scores")
            grads.append(backward(total_loss(p, sel, cfg).node)["scores"])
        pull = grads[0] - grads[1]
        assert pull[0, 0] < 0 and pull[0, 1] == 0
        assert pull[1, 1] > 0 and pull[1, 0] == 0


# ---------------------------------------------------------------------------
# sparsity


class TestSparsityLoss:
    def test_values(self):
        assert float(sparsity_loss(_t([0.0, 0.0]))) == 0.0
        assert float(sparsity_loss(_t([1.0, 1.0]))) == 1.0
        assert float(sparsity_loss(_t([0.2, 0.2, 0.6]))) == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------------------------
# assembly


def _first_clips(t):
    """(2, T) mask of the first clip of both bags."""
    mask = np.zeros((2, t), dtype=bool)
    mask[:, 0] = True
    return mask


def _pair_and_sel(pos, neg):
    sel = SelectionResult(omega=1.0, k=1, mask=_first_clips(len(pos)))
    return Tensor(np.array([pos, neg], dtype=np.float64)), sel


class TestTotalLoss:
    def test_default_sums_ais_smooth_antagonistic(self):
        pair, sel = _pair_and_sel([0.8, 0.6, 0.7], [0.2, 0.1, 0.3])
        out = total_loss(pair, sel)
        assert out.total == pytest.approx(out.ais + out.smooth + out.antagonistic, abs=1e-12)
        assert out.total == pytest.approx(float(out.node.data), abs=0.0)

    def test_both_extra_terms_off(self):
        pair, sel = _pair_and_sel([0.8, 0.6, 0.7], [0.2, 0.1, 0.3])
        out = total_loss(pair, sel, LossConfig(use_antagonistic=False))
        assert out.total == pytest.approx(out.ais + out.smooth, abs=1e-12)

    def test_disabled_terms_still_reported(self):
        pair, sel = _pair_and_sel([0.8, 0.6, 0.7], [0.2, 0.1, 0.3])
        out = total_loss(pair, sel, LossConfig(use_antagonistic=False))
        assert out.antagonistic > 0.0 and out.sparsity > 0.0

    def test_gradients_flow_through_total(self):
        scores = leaf(np.array([[0.8, 0.6, 0.7], [0.2, 0.1, 0.3]]), "scores")
        sel = SelectionResult(omega=1.0, k=1, mask=_first_clips(3))
        out = total_loss(scores, sel)
        grad = backward(out.node)["scores"]
        assert np.any(grad[0] != 0) and np.any(grad[1] != 0)
        assert np.isfinite(grad).all()


@pytest.mark.parametrize("cfg", [LossConfig(), LossConfig(use_antagonistic=False)])
def test_batch_of_pairs_is_the_mean_of_single_pairs(cfg):
    # a (2, B, T) batch with K differing between pairs: each term, the total
    # and every score gradient equal the per-pair computation averaged over B
    rng = np.random.default_rng(4)
    pos, neg = rng.uniform(size=(3, 6)), rng.uniform(size=(3, 6))
    k = np.array([1, 3, 2])
    mask = np.stack([topk_mask(rng.uniform(size=(3, 6)), k), topk_mask(rng.uniform(size=(3, 6)), k)])

    batch_scores = leaf(np.stack([pos, neg]), "scores")
    batch = total_loss(batch_scores, SelectionResult(np.ones(3), k, mask), cfg)
    batch_grad = backward(batch.node)["scores"]
    singles = []
    for i in range(3):
        scores = leaf(np.stack([pos[i], neg[i]]), "pair")
        out = total_loss(scores, SelectionResult(np.float64(1.0), k[i], mask[:, i]), cfg)
        grad = backward(out.node)["pair"]
        singles.append(out)
        np.testing.assert_allclose(batch_grad[:, i], grad / 3, rtol=1e-12, atol=1e-15)
    for term in ("ais", "smooth", "antagonistic", "sparsity", "total"):
        expected = np.mean([getattr(o, term) for o in singles])
        assert getattr(batch, term) == pytest.approx(expected, rel=1e-12)
    assert float(batch.node.data) == pytest.approx(batch.total, rel=1e-15)
