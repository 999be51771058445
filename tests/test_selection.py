"""Confidence estimate, adaptive budget, magnitude ranking, selection loss.

Scores, magnitudes and masks are shaped (2, ..., T), positive bags first."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsvad.losses import ais_loss
from wsvad.selection import (
    SelectionConfig,
    SelectionResult,
    adaptive_k,
    confidence,
    select,
    topk_mask,
)


def topk_by_magnitude(features, k: int) -> tuple[int, ...]:
    """Indices of the k rows with the largest L2 norm, descending; ties keep
    the lower index first. The reference ``topk_mask`` is tested against."""
    feats = np.asarray(features)
    if feats.ndim != 2:
        raise ValueError(f"features must be 2-d, got shape {feats.shape}")
    if not 1 <= k <= feats.shape[0]:
        raise ValueError(f"k must be in [1, {feats.shape[0]}], got {k}")
    norms = np.linalg.norm(feats, axis=1)
    order = np.argsort(-norms, kind="stable")
    return tuple(int(i) for i in order[:k])


scores_strategy = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=24).map(np.array)


def _pair(pos, neg):
    """The (2, T) scores of one pair."""
    return np.array([pos, neg], dtype=np.float64)


def _first(t, k):
    """(2, T) mask of the first k of t clips of both bags."""
    return np.tile(np.arange(t) < k, (2, 1))


# ---------------------------------------------------------------------------
# confidence


class TestConfidence:
    def test_silent_negative_and_flat_positive_is_one(self):
        assert confidence(_pair([0.7, 0.7, 0.7, 0.7], [0.0, 0.0, 0.0, 0.0])) == 1.0

    def test_hand_example(self):
        # mean(S^N) = 0.1; roughness = 0 + (0.6 + 0 + 0.6) = 1.2
        # raw = 1 - 0.1 - 1.2 / 6 = 0.7
        omega = confidence(_pair([0.2, 0.8, 0.8, 0.2], [0.1, 0.1, 0.1, 0.1]))
        assert omega == pytest.approx(0.7, abs=1e-12)

    def test_alternating_scores_clamp_to_zero(self):
        pos = [0.0, 1.0] * 6
        neg = [1.0, 0.0] * 6
        assert confidence(_pair(pos, neg)) == 0.0

    def test_short_sequences_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            confidence(_pair([0.5], [0.5]))

    def test_mismatched_lengths_rejected(self):
        # bags of different lengths cannot form a (2, T) array
        with pytest.raises(ValueError, match=r"\(2, \.\.\., T\)"):
            confidence(np.array([[0.5, 0.5], [0.5, 0.5, 0.5]], dtype=object))

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (5, 3, 4)])
    def test_scores_not_in_pairs_rejected(self, shape):
        scores = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=r"\(2, \.\.\., T\)"):
            confidence(scores)
        with pytest.raises(ValueError, match=r"\(2, \.\.\., T\)"):
            select(scores, np.ones(shape))

    @settings(max_examples=60, deadline=None)
    @given(pos=scores_strategy, neg=scores_strategy)
    def test_bounded_in_unit_interval(self, pos, neg):
        t = min(len(pos), len(neg))
        omega = confidence(_pair(pos[:t], neg[:t]))
        assert 0.0 <= omega <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(pos=scores_strategy, neg=scores_strategy)
    def test_invariant_to_reversing_both_sequences(self, pos, neg):
        t = min(len(pos), len(neg))
        pos, neg = pos[:t], neg[:t]
        forward = confidence(_pair(pos, neg))
        backward = confidence(_pair(pos[::-1].copy(), neg[::-1].copy()))
        assert forward == pytest.approx(backward, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pos=scores_strategy, shift=st.floats(0.01, 0.5))
    def test_decreasing_in_negative_mean(self, pos, shift):
        # a uniform lift of S^N changes nothing but its mean
        t = len(pos)
        neg_lo = np.full(t, 0.1)
        neg_hi = np.minimum(neg_lo + shift, 1.0)
        lo = confidence(_pair(pos, neg_lo))
        hi = confidence(_pair(pos, neg_hi))
        assert hi <= lo + 1e-12


# ---------------------------------------------------------------------------
# adaptive budget


class TestAdaptiveK:
    def test_full_confidence_keeps_every_confident_clip(self):
        assert adaptive_k(1.0, np.array([0.95, 0.2, 0.92, 0.1])) == 2

    def test_partial_confidence_rounds_half_up(self):
        # 0.7 * 2 + 0.5 = 1.9 -> floor 1
        assert adaptive_k(0.7, np.array([0.95, 0.2, 0.92, 0.1])) == 1
        # 0.8 * 2 + 0.5 = 2.1 -> floor 2
        assert adaptive_k(0.8, np.array([0.95, 0.2, 0.92, 0.1])) == 2

    def test_no_confident_clips_floors_at_one(self):
        assert adaptive_k(1.0, np.array([0.1, 0.2, 0.3])) == 1
        assert adaptive_k(0.0, np.array([0.99, 0.99])) == 1

    def test_threshold_boundary_is_inclusive(self):
        assert adaptive_k(1.0, np.array([0.9, 0.1])) == 1
        assert adaptive_k(1.0, np.array([0.9, 0.1]), threshold=0.91) == 1  # floor

    def test_never_exceeds_bag_size(self):
        assert adaptive_k(1.0, np.full(4, 0.99)) == 4

    @settings(max_examples=60, deadline=None)
    @given(pos=scores_strategy,
           lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0))
    def test_monotone_in_omega(self, pos, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        assert adaptive_k(lo, pos) <= adaptive_k(hi, pos)

    @settings(max_examples=60, deadline=None)
    @given(pos=scores_strategy, omega=st.floats(0.0, 1.0))
    def test_always_in_valid_range(self, pos, omega):
        k = adaptive_k(omega, pos)
        assert 1 <= k <= len(pos)


# ---------------------------------------------------------------------------
# magnitude ranking


class TestTopkByMagnitude:
    def test_full_k_returns_descending_order(self):
        feats = np.diag([1.0, 5.0, 3.0])
        assert topk_by_magnitude(feats, 3) == (1, 2, 0)

    def test_partial_k(self):
        feats = np.diag([1.0, 5.0, 3.0])
        assert topk_by_magnitude(feats, 2) == (1, 2)

    def test_ties_keep_lower_index_first(self):
        feats = np.array([[3.0, 4.0], [5.0, 0.0], [0.0, 5.0]])  # all norm 5
        assert topk_by_magnitude(feats, 3) == (0, 1, 2)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            topk_by_magnitude(np.ones((3, 2)), 0)
        with pytest.raises(ValueError, match="k must be"):
            topk_by_magnitude(np.ones((3, 2)), 4)

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            topk_by_magnitude(np.ones(5), 1)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), t=st.integers(1, 12), ks=st.lists(st.integers(1, 12), min_size=3, max_size=3),
           ties=st.booleans())
    def test_batched_mask_matches_topk_by_magnitude(self, seed, t, ks, ties):
        # one mask over a (B, T) stack of magnitudes, K per bag, selects the
        # rows topk_by_magnitude picks from each bag, ties to the lower index
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((3, t, 4))
        if ties:
            feats = np.round(feats)  # integer rows: many equal norms
            feats[:, t // 2] = feats[:, 0]
        k = np.minimum(ks, t)
        mask = topk_mask(np.linalg.norm(feats, axis=2), k)
        for b in range(3):
            picked = np.zeros(t, dtype=bool)
            picked[list(topk_by_magnitude(feats[b], int(k[b])))] = True
            np.testing.assert_array_equal(mask[b], picked)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), t=st.integers(1, 12), k=st.integers(1, 12))
    def test_selects_k_distinct_rows_with_max_norms(self, seed, t, k):
        k = min(k, t)
        feats = np.random.default_rng(seed).standard_normal((t, 4))
        picked = topk_by_magnitude(feats, k)
        assert len(set(picked)) == k
        norms = np.linalg.norm(feats, axis=1)
        worst_picked = min(norms[list(picked)])
        rest = [n for i, n in enumerate(norms) if i not in picked]
        assert not rest or worst_picked >= max(rest) - 1e-12


# ---------------------------------------------------------------------------
# combined selection + loss


class TestSelect:
    def test_adaptive_off_pins_k_to_one(self):
        pair = _pair([0.99, 0.99, 0.99, 0.99], [0.0, 0.0, 0.0, 0.0])
        sel = select(pair, np.ones_like(pair), SelectionConfig(adaptive=False))
        assert sel.k == 1 and sel.mask.sum(axis=-1).tolist() == [1, 1]

    def test_adaptive_on_uses_budget(self):
        pair = _pair([0.99, 0.99, 0.99, 0.99], [0.0, 0.0, 0.0, 0.0])
        sel = select(pair, np.ones_like(pair))
        assert sel.omega == 1.0 and sel.k == 4

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pair = _pair(rng.uniform(size=8), rng.uniform(size=8))
        magnitudes = np.linalg.norm(rng.standard_normal((2, 8, 5)), axis=-1)
        a, b = select(pair, magnitudes), select(pair, magnitudes)
        assert (a.omega, a.k) == (b.omega, b.k)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_batch_equals_each_pair(self):
        # one (2, B, T) call selects exactly what B calls on (2, T) pairs
        # select; a single pair's omega and K are 0-d
        rng = np.random.default_rng(5)
        pos = rng.uniform(0.6, 1.0, size=(6, 10))
        neg = rng.uniform(0.0, 0.2, size=(6, 10))
        scores = np.stack([pos, neg])
        magnitudes = np.stack([rng.uniform(size=(6, 10)), rng.uniform(size=(6, 10))])
        cfg = SelectionConfig(threshold=0.8)
        batch = select(scores, magnitudes, cfg)
        assert len(set(batch.k)) > 1 and batch.mask.shape == scores.shape
        for i in range(6):
            one = select(scores[:, i], magnitudes[:, i], cfg)
            assert np.shape(one.omega) == np.shape(one.k) == ()
            assert one.omega == batch.omega[i] and one.k == batch.k[i]
            np.testing.assert_array_equal(one.mask, batch.mask[:, i])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            SelectionConfig(threshold=0.0)


class TestAisLoss:
    def _loss_value(self, pos, neg, k=1):
        sel = SelectionResult(omega=1.0, k=k, mask=_first(len(pos), k))
        return float(ais_loss(_pair(pos, neg), sel))

    def test_perfect_separation_is_almost_zero(self):
        assert abs(self._loss_value([1.0, 0.0], [0.0, 1.0])) < 1e-6

    def test_uninformative_scores_cost_two_log_two(self):
        assert self._loss_value([0.5, 0.5], [0.5, 0.5]) == pytest.approx(2 * math.log(2), rel=1e-6)

    def test_worst_case_stays_finite(self):
        v = self._loss_value([0.0, 1.0], [1.0, 0.0])
        assert np.isfinite(v) and v == pytest.approx(-2 * math.log(1e-7), rel=1e-3)

    @staticmethod
    def _ais_gradient(pos, neg, sel):
        # on constant scores the smoothness term has zero gradient, so with
        # the antagonistic term off the objective's gradient is the AIS term's
        from references import leaf
        from wsvad.autodiff import backward
        from wsvad.losses import LossConfig, total_loss

        scores = leaf(_pair(pos, neg), "scores")
        return backward(total_loss(scores, sel, LossConfig(use_antagonistic=False)).node)["scores"]

    def test_gradient_pushes_scores_apart(self):
        sel = SelectionResult(omega=1.0, k=2, mask=_first(2, 2))
        grad = self._ais_gradient([0.5, 0.5], [0.5, 0.5], sel)
        assert (grad[0] < 0).all()  # descent raises positive scores
        assert (grad[1] > 0).all()  # descent lowers negative scores

    def test_only_selected_scores_receive_gradient(self):
        sel = SelectionResult(omega=1.0, k=1, mask=np.array([[True, False, False], [False, True, False]]))
        grad = self._ais_gradient([0.7, 0.7, 0.7], [0.3, 0.3, 0.3], sel)
        assert grad[0, 0] != 0 and grad[0, 1] == 0 and grad[0, 2] == 0
        assert grad[1, 1] != 0 and grad[1, 0] == 0 and grad[1, 2] == 0
