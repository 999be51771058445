"""Frame-level ROC area, per-video scoring, per-class splits, CSV export."""

from __future__ import annotations

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsvad.autodiff import ConfigurationError, DimensionError
from wsvad.data import ClipFeatureBag, SyntheticSpec, load_bags, make_synthetic
from wsvad.evaluation import (
    EvalRecord,
    UndefinedMetricError,
    auc,
    evaluate_bags,
    export_scores_csv,
    per_class_auc,
    per_video_auc,
    score_video,
)
from wsvad.evaluation import _score_split
from wsvad.model import AnomalyScorer, HfcConfig, MtaConfig


def _pairwise_auc(scores, labels) -> float:
    """Brute-force Mann-Whitney oracle: every positive/negative pair counted."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# the metric itself


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_all_tied_scores(self):
        assert auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5

    def test_mixed_hand_example(self):
        # pairs: (0.7 vs 0.2) win, (0.7 vs 0.9) loss, (0.4 vs 0.2) win, (0.4 vs 0.9) loss
        assert auc([0.2, 0.7, 0.4, 0.9], [0, 1, 1, 0]) == 0.5

    def test_inverted_ranking(self):
        assert auc([0.1, 0.2, 0.9], [1, 1, 0]) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError, match="both classes"):
            auc([0.1, 0.2], [1, 1])
        with pytest.raises(UndefinedMetricError, match="both classes"):
            auc([0.1, 0.2], [0, 0])

    def test_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            auc([0.1, 0.2], [1])
        with pytest.raises(ValueError, match="0 or 1"):
            auc([0.1, 0.2], [1, 2])
        with pytest.raises(ValueError, match="finite"):
            auc([np.nan, 0.2], [1, 0])
        with pytest.raises(ValueError, match="empty"):
            auc([], [])

    @pytest.mark.parametrize("labels", [
        [0, 1, 1], np.array([0, 1, 1], dtype=np.uint8), [False, True, True], [0.0, 1.0, 1.0],
    ])
    def test_accepted_label_values(self, labels):
        assert auc([0.1, 0.2, 0.3], labels) == 1.0

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_rejected_label_values(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            auc([0.1, 0.2, 0.3], [0, 1, bad])

    def test_temporaries_of_a_large_split(self):
        # the frame count and distinct-score count of the score-d2048 test
        # split, with the uint8 labels evaluation pools
        rng = np.random.default_rng(0)
        n = 155_287
        scores = rng.integers(0, 12_800, n) / 12_800.0
        labels = (rng.uniform(size=n) < 0.3).astype(np.uint8)
        tracemalloc.start()
        try:
            auc(scores, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(2, 5_000), levels=st.integers(1, 6),
           shuffles=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
    def test_exactly_invariant_under_permutation(self, seed, n, levels, shuffles):
        # each run of tied scores is summed whole, so the order an unstable
        # sort leaves inside a run never reaches the integer numerator
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels + 1, size=n) / levels
        scores[rng.uniform(size=n) < 0.3] *= -1.0  # -0.0 ties with 0.0
        labels = rng.integers(0, 2, size=n).astype(np.uint8)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        base = auc(scores, labels)
        for shuffle in shuffles:
            perm = np.random.default_rng(shuffle).permutation(n)
            assert auc(scores[perm], labels[perm]) == base

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(2, 60),
           levels=st.integers(1, 6))
    def test_matches_brute_force_pair_count(self, seed, n, levels):
        rng = np.random.default_rng(seed)
        # coarse score grid forces plenty of ties
        scores = rng.integers(0, levels + 1, size=n) / max(levels, 1)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pytest.approx(_pairwise_auc(scores, labels), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, size=30)
        if labels.sum() in (0, 30):
            labels[0] = 1 - labels[0]
        base = auc(scores, labels)
        assert auc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_label_flip_complements(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(size=25)
        labels = rng.integers(0, 2, size=25)
        if labels.sum() in (0, 25):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) + auc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)


class TestClipAuc:
    """``auc(scores, labels, counts)``: score i stands for counts[i] frames,
    labels[i] of them anomalous."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), clips=st.integers(1, 40), extra=st.integers(0, 120),
           levels=st.integers(1, 6), runs=st.integers(1, 4))
    def test_equals_the_frame_level_area_of_the_repeated_scores(self, seed, clips, extra, levels, runs):
        rng = np.random.default_rng(seed)
        frames = max(clips + extra, 2)
        # every clip covers at least one frame; the rest fall anywhere
        counts = 1 + np.bincount(rng.integers(0, clips, frames - clips), minlength=clips)
        # a coarse grid forces ties, and -0.0 ties with 0.0
        scores = rng.integers(0, levels + 1, size=clips) / levels
        scores[rng.uniform(size=clips) < 0.3] *= -1.0
        # anomalous runs laid on the frames, so they cross clip bounds
        frame_labels = np.zeros(frames, dtype=np.uint8)
        for _ in range(runs):
            start = int(rng.integers(0, frames))
            frame_labels[start : start + int(rng.integers(1, frames + 1))] = 1
        normal = int(rng.integers(0, frames))
        frame_labels[normal] = 0
        if not frame_labels.any():
            frame_labels[(normal + 1) % frames] = 1
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        positives = np.add.reduceat(frame_labels, starts, dtype=np.int64)
        assert auc(scores, positives, counts) == auc(np.repeat(scores, counts), frame_labels)

    def test_hand_example(self):
        # clip scores 0.9 (3 frames, 2 anomalous) and 0.2 (2 frames, none):
        # each anomalous frame beats the 2 normal frames at 0.2 and ties the
        # normal frame at 0.9
        assert auc([0.9, 0.2], [2, 0], [3, 2]) == (2 * 2 + 2 * 1 * 0.5) / (2 * 3)
        assert auc([0.9, 0.2], [2, 0], [3, 2]) == auc([0.9] * 3 + [0.2] * 2, [1, 1, 0, 0, 0])

    def test_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            auc([0.1, 0.2], [1, 0], [2])
        with pytest.raises(ValueError, match="equal-length"):
            auc([0.1, 0.2], [1, 0], [[2, 2]])
        with pytest.raises(ValueError, match="between 0 and their counts"):
            auc([0.1, 0.2], [3, 0], [2, 2])  # more anomalous frames than frames
        with pytest.raises(ValueError, match="between 0 and their counts"):
            auc([0.1, 0.2], [-1, 0], [2, 2])
        with pytest.raises(ValueError, match="between 0 and their counts"):
            auc([0.1, 0.2], [0, 1], [-2, 2])
        with pytest.raises(ValueError, match="integers"):
            auc([0.1, 0.2], [0.5, 1], [1, 2])
        with pytest.raises(ValueError, match="integers"):
            auc([0.1, 0.2], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            auc([np.inf, 0.2], [1, 0], [2, 2])
        with pytest.raises(ValueError, match="empty"):
            auc([], np.array([], dtype=int), np.array([], dtype=int))

    def test_single_class_split_is_an_undefined_metric(self):
        with pytest.raises(UndefinedMetricError, match="both classes"):
            auc([0.1, 0.2], [0, 0], [3, 4])  # all normal
        with pytest.raises(UndefinedMetricError, match="both classes"):
            auc([0.1, 0.2], [3, 4], [3, 4])  # all anomalous


# ---------------------------------------------------------------------------
# per-video scoring


def _tiny_model(dim=6, seed=3):
    return AnomalyScorer(HfcConfig.for_feature_dim(dim, narrow=4, wide=5), MtaConfig(), seed=seed)


def _bag(features, label=0, num_frames=None, video_id="v", frame_labels=None, class_name=None):
    features = np.asarray(features, dtype=np.float64)
    if num_frames is None:
        num_frames = features.shape[0] * 2
    return ClipFeatureBag(features=features, label=label, video_id=video_id,
                          num_frames=num_frames, frame_labels=frame_labels,
                          class_name=class_name)


class TestScoreVideo:
    def test_constant_features_give_constant_frames(self):
        model = _tiny_model()
        bag = _bag(np.ones((8, 6)), num_frames=19)
        frames = score_video(bag, model)
        assert frames.shape == (19,)
        assert np.unique(frames).size == 1

    def test_each_clip_score_covers_its_frame_range(self):
        model = _tiny_model()
        feats = np.random.default_rng(0).standard_normal((8, 6))
        frames = score_video(_bag(feats, num_frames=16), model)
        assert frames.shape == (16,)
        # N = 2T: every clip owns exactly two frames
        assert np.array_equal(frames[0::2], frames[1::2])

    def test_scores_are_probabilities(self):
        model = _tiny_model()
        frames = score_video(_bag(np.random.default_rng(1).standard_normal((8, 6))), model)
        assert (frames > 0).all() and (frames < 1).all()

    @pytest.mark.parametrize("shape, error, message", [
        ((3, 6), ConfigurationError, "has 3 clips but the largest kernel needs 5"),
        ((8, 9), DimensionError, "has 9-dim features, the model expects 6"),
    ], ids=["too-few-clips", "wrong-width"])
    def test_a_bag_the_model_cannot_score_is_named(self, shape, error, message):
        with pytest.raises(error, match=f"scored video 'bad' {message}"):
            score_video(_bag(np.ones(shape), video_id="bad"), _tiny_model())


def _scored_record(bag, model) -> EvalRecord:
    """One bag's record, as ``evaluate_bags`` makes it."""
    records, _ = _score_split([bag], model)
    return records[0]


class TestEvalRecord:
    def test_normal_bag_synthesizes_zero_labels(self):
        rec = _scored_record(_bag(np.ones((8, 6)), label=0, num_frames=20), _tiny_model())
        assert rec.frame_labels.shape == (20,)
        assert rec.frame_labels.sum() == 0

    def test_anomalous_bag_requires_frame_labels(self):
        with pytest.raises(UndefinedMetricError, match="frame labels"):
            _scored_record(_bag(np.ones((8, 6)), label=1), _tiny_model())

    def test_anomalous_bag_keeps_given_labels(self):
        labels = np.zeros(16, dtype=np.uint8)
        labels[4:8] = 1
        rec = _scored_record(
            _bag(np.ones((8, 6)), label=1, num_frames=16, frame_labels=labels), _tiny_model()
        )
        np.testing.assert_array_equal(rec.frame_labels, labels)


def _mixed_split(dim, seed=0):
    """Test bags of 7, 29 and 32 clips, interleaved, float32 and float64,
    each with frame labels; more bags of 32 clips than one chunk holds."""
    rng = np.random.default_rng(seed)
    bags = []
    for i, t in enumerate([32, 7, 29, 32, 7, 32, 32, 29, 7, 32, 32, 32, 7, 32, 32, 29]):
        feats = rng.standard_normal((t, dim)).astype(np.float32 if i % 2 else np.float64)
        labels = (rng.uniform(size=3 * t) < 0.4).astype(np.uint8)
        bags.append(ClipFeatureBag(feats, 1, f"v{i}", 3 * t, frame_labels=labels))
    return bags


class TestStackedEvaluation:
    @pytest.mark.parametrize("mta_cfg", [MtaConfig(), None], ids=["attention", "no-attention"])
    @pytest.mark.parametrize("dim", [24, 2048])
    def test_records_equal_per_video_scores_in_input_order(self, dim, mta_cfg):
        # the default float32 head: request scores equal eval scores in it
        model = AnomalyScorer(HfcConfig.for_feature_dim(dim), mta_cfg, seed=2)
        assert model.dtype == np.float32
        rng = np.random.default_rng(dim)
        if mta_cfg is not None:
            for k in mta_cfg.kernel_sizes:
                model.params[f"mta.conv{k}.weight"][:] = rng.uniform(-2, 2, k)
        bags = _mixed_split(dim)
        result = evaluate_bags(bags, model)
        assert [r.video_id for r in result.records] == [b.video_id for b in bags]
        for bag, rec in zip(bags, result.records):
            assert np.array_equal(rec.frame_scores, score_video(bag, model)), bag.video_id
            assert rec.frame_labels is bag.frame_labels
        pooled = np.concatenate([score_video(b, model) for b in bags])
        assert result.overall_auc == auc(pooled, np.concatenate([b.frame_labels for b in bags]))

    @settings(max_examples=80, deadline=None)
    @given(mode=st.sampled_from(["residual", "pure", None]),
           model_dtype=st.sampled_from([np.float32, np.float64]),
           bag_dtypes=st.lists(st.sampled_from([np.float32, np.float64]), min_size=1, max_size=4),
           t=st.integers(MtaConfig.k_max, 40), dim=st.sampled_from([8, 64]), seed=st.integers(0, 2**32 - 1))
    def test_request_equals_eval_record_and_stack_row_bit_for_bit(self, mode, model_dtype, bag_dtypes, t,
                                                                   dim, seed):
        # a request is a chunk of one: its frame scores are its record's in
        # evaluate_bags and its row of a stacked score_bag (whose clip means
        # score_bag computes itself), compared with ==
        mta_cfg = None if mode is None else MtaConfig(mode=mode)
        model = AnomalyScorer(HfcConfig.for_feature_dim(dim), mta_cfg, seed=seed % 97, dtype=model_dtype)
        rng = np.random.default_rng(seed)
        if mta_cfg is not None:
            for k in mta_cfg.kernel_sizes:
                model.params[f"mta.conv{k}.weight"][:] = rng.uniform(-2, 2, k)
                model.params[f"mta.conv{k}.bias"][:] = rng.uniform(-1, 1)
        bags = []
        for i, dtype in enumerate(bag_dtypes):
            frames = int(rng.integers(t, 4 * t))
            bags.append(ClipFeatureBag(rng.standard_normal((t, dim)).astype(dtype), 1, f"v{i}", frames,
                                       frame_labels=np.arange(frames) % 2))
        records = evaluate_bags(bags, model).records
        stack_scores = model.score_bag(np.stack([b.features for b in bags])).scores
        for bag, rec, row in zip(bags, records, stack_scores):
            request = score_video(bag, model)
            assert (request == rec.frame_scores).all()
            assert (request == np.repeat(row, bag.clip_frame_counts)).all()

    def test_copies_no_features(self):
        # a stack of one chunk, 8 bags of 32 x 2048 float32, alone takes
        # 8 * 32 * 2048 * 4 B = 2 MiB; the head reads each bag where it lies
        rng = np.random.default_rng(0)
        model = AnomalyScorer(HfcConfig.for_feature_dim(2048), MtaConfig(), seed=2)
        bags = [ClipFeatureBag(rng.standard_normal((32, 2048), dtype=np.float32), i % 2, f"v{i}", 64,
                               frame_labels=np.full(64, i % 2)) for i in range(16)]
        tracemalloc.start()
        try:
            evaluate_bags(bags, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 32 * 2048 * 4

    @settings(max_examples=40, deadline=None)
    @given(ts=st.lists(st.integers(MtaConfig.k_max, 40), min_size=2, max_size=12),
           attention=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_overall_auc_is_the_area_of_the_pooled_frames(self, ts, attention, seed):
        # evaluate_bags sorts clips weighted by their frames; the area must
        # equal the frame-level one to the last bit. Features of 0s and 1s
        # repeat rows across bags, so clips of different bags tie.
        rng = np.random.default_rng(seed)
        model = AnomalyScorer(HfcConfig.for_feature_dim(8), MtaConfig() if attention else None, seed=seed % 97)
        bags = []
        for i, t in enumerate(ts):
            feats = rng.integers(0, 2, (t, 8)).astype(np.float32 if i % 3 else np.float64)
            frames = int(rng.integers(t, 5 * t + 1))
            if i % 2:  # a normal video, with or without all-zero frame labels
                labels = np.zeros(frames, dtype=np.uint8) if i % 4 == 1 else None
                bags.append(ClipFeatureBag(feats, 0, f"n{i}", frames, frame_labels=labels))
            else:
                labels = np.zeros(frames, dtype=np.uint8)
                start = int(rng.integers(0, frames))
                labels[start : start + int(rng.integers(1, frames + 1))] = 1
                bags.append(ClipFeatureBag(feats, 1, f"a{i}", frames, frame_labels=labels, class_name="c"))
        result = evaluate_bags(bags, model)
        pooled = auc(np.concatenate([r.frame_scores for r in result.records]),
                     np.concatenate([r.frame_labels for r in result.records]))
        assert result.overall_auc == pooled

    def test_overall_auc_of_a_synthetic_corpus_is_the_area_of_its_frames(self, tiny_bags):
        test = tiny_bags["test"] + [
            ClipFeatureBag(b.features[:t], b.label, f"{b.video_id}-{t}", b.num_frames,
                           frame_labels=b.frame_labels, class_name=b.class_name)
            for b in tiny_bags["test"] for t in (7, 13)
        ]
        result = evaluate_bags(test, AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=4))
        pooled = auc(np.concatenate([r.frame_scores for r in result.records]),
                     np.concatenate([r.frame_labels for r in result.records]))
        assert result.overall_auc == pooled

    @pytest.mark.parametrize("shape, error, message", [
        ((3, 6), ConfigurationError, "has 3 clips but the largest kernel needs 5"),
        ((16, 9), DimensionError, "has 9-dim features, the model expects 6"),
    ], ids=["too-few-clips", "wrong-width"])
    def test_a_shape_the_model_cannot_score_names_its_first_video(self, shape, error, message):
        # valid bags before and after; the bad shape's group is named by
        # its first video, not its last
        bags = [_bag(np.ones((8, 6)), video_id="ok_0"), _bag(np.ones(shape), video_id="bad_0"),
                _bag(np.ones((8, 6)), video_id="ok_1"), _bag(np.ones(shape), video_id="bad_1")]
        with pytest.raises(error, match=f"evaluation video 'bad_0' {message}"):
            evaluate_bags(bags, _tiny_model())

    def test_empty_split_is_an_undefined_metric(self):
        with pytest.raises(UndefinedMetricError, match="holds no videos"):
            evaluate_bags([], _tiny_model())

    def test_fit_logs_the_auc_of_best_checkpoint(self, tiny_bags, tmp_path):
        from wsvad.model import load_checkpoint
        from wsvad.training import TrainConfig, fit

        test = [
            ClipFeatureBag(b.features[:t], b.label, f"{b.video_id}-{t}", b.num_frames,
                           frame_labels=b.frame_labels)
            for b in tiny_bags["test"] for t in (7, 16)
        ]
        model = AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7)
        result = fit(tiny_bags["train"], test, model, TrainConfig(epochs=4, batch_pairs=8, seed=7), tmp_path)
        best = max(result.rows, key=lambda r: r["auc"])
        with open(result.log_path, newline="") as fh:
            logged = list(csv.DictReader(fh))[best["epoch"] - 1]["auc"]
        reloaded = evaluate_bags(test, load_checkpoint(result.best_checkpoint)).overall_auc
        assert float(logged) == best["auc"] == result.best_auc == reloaded


# ---------------------------------------------------------------------------
# pooled + per-class evaluation


def _record(video_id, scores, labels, class_name=None):
    return EvalRecord(video_id=video_id,
                      frame_scores=np.asarray(scores, dtype=np.float64),
                      frame_labels=np.asarray(labels, dtype=np.uint8),
                      class_name=class_name)


class TestPerClass:
    def test_single_class_equals_global(self):
        records = [
            _record("n1", [0.1, 0.2], [0, 0]),
            _record("a1", [0.9, 0.3], [1, 0], class_name="fight"),
        ]
        per = per_class_auc(records)
        pooled = auc(np.array([0.1, 0.2, 0.9, 0.3]), np.array([0, 0, 1, 0]))
        assert per == {"fight": pooled}

    def test_class_without_anomalous_frames_warns_and_skips(self):
        records = [
            _record("n1", [0.1, 0.2], [0, 0]),
            _record("a1", [0.9, 0.3], [0, 0], class_name="ghost"),
            _record("a2", [0.8, 0.2], [1, 0], class_name="fight"),
        ]
        with pytest.warns(UserWarning, match="ghost"):
            per = per_class_auc(records)
        assert set(per) == {"fight"}

    def test_harder_class_scores_lower(self, tmp_path):
        # two synthetic corpora that differ only in separation; a fixed norm
        # ranking must find the wider one easier
        specs = {
            "easy": SyntheticSpec(n_normal=6, n_abnormal=6, n_test_normal=8, n_test_abnormal=8,
                                  clip_count=16, feature_dim=24, anomaly_span=(2, 5),
                                  separation=6.0, seed=3, class_name="easy"),
            "hard": SyntheticSpec(n_normal=6, n_abnormal=6, n_test_normal=8, n_test_abnormal=8,
                                  clip_count=16, feature_dim=24, anomaly_span=(2, 5),
                                  separation=0.3, seed=3, class_name="hard"),
        }
        records = []
        from wsvad.data import clip_frame_bounds

        for name, spec in specs.items():
            _, test_manifest = make_synthetic(spec, tmp_path / name)
            for bag in load_bags(test_manifest):
                norms = np.linalg.norm(bag.features, axis=1)
                frames = np.repeat(norms, np.diff(clip_frame_bounds(bag.num_clips, bag.num_frames)))
                if bag.label == 1:
                    records.append(_record(bag.video_id, frames, bag.frame_labels, class_name=name))
                else:
                    records.append(_record(bag.video_id, frames, np.zeros(bag.num_frames, dtype=np.uint8)))
        per = per_class_auc(records)
        assert per["easy"] > per["hard"]

    def test_evaluate_bags_pools_all_frames(self, tiny_dataset):
        bags = load_bags(tiny_dataset["test"])
        model = AnomalyScorer(HfcConfig.for_feature_dim(24, narrow=4, wide=5), MtaConfig(), seed=0)
        result = evaluate_bags(bags, model)
        assert 0.0 <= result.overall_auc <= 1.0
        assert len(result.records) == len(bags)
        assert set(result.per_class) == {"synthetic"}

    def test_per_video_protocol(self):
        records = [
            _record("a", [0.9, 0.1], [1, 0]),
            _record("b", [0.2, 0.8], [1, 0]),
            _record("n", [0.5, 0.5], [0, 0]),  # single-class video is skipped
        ]
        assert per_video_auc(records) == pytest.approx(0.5)

    def test_per_video_needs_one_mixed_video(self):
        with pytest.raises(UndefinedMetricError, match="no video"):
            per_video_auc([_record("n", [0.5, 0.5], [0, 0])])


# ---------------------------------------------------------------------------
# export


class TestExport:
    def test_round_trip_precision(self, tmp_path):
        scores = np.array([0.123456789123456789, 1 / 3, 0.5])
        path = export_scores_csv(tmp_path / "scores.csv", scores, labels=[0, 1, 0])
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["frame_index"]) for r in rows] == [0, 1, 2]
        assert [float(r["score"]) for r in rows] == scores.tolist()
        assert [r["label"] for r in rows] == ["0", "1", "0"]

    def test_labels_optional(self, tmp_path):
        path = export_scores_csv(tmp_path / "scores.csv", [0.5])
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["label"] == ""

    def test_fewer_labels_than_scores_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="one label per score"):
            export_scores_csv(tmp_path / "scores.csv", [0.1, 0.2, 0.3], labels=[0, 1])
        assert not (tmp_path / "scores.csv").exists()

    def test_more_labels_than_scores_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="one label per score"):
            export_scores_csv(tmp_path / "scores.csv", [0.1, 0.2], labels=[0, 1, 1])
        assert not (tmp_path / "scores.csv").exists()
