"""Adam updates, the paired-bag epoch loop, fit/resume reproducibility."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from wsvad import training
from wsvad.autodiff import ConfigurationError, backward
from wsvad.data import ClipFeatureBag, SyntheticSpec, load_bags, make_synthetic
from wsvad.evaluation import UndefinedMetricError, evaluate_bags
from wsvad.model import (
    STATE_MAGIC,
    AnomalyScorer,
    CheckpointError,
    HfcConfig,
    ModelParameters,
    MtaConfig,
    dropout_masks,
    load_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
)
from wsvad.losses import LossConfig
from wsvad.selection import SelectionConfig
from wsvad.training import (
    LOG_COLUMNS,
    TrainConfig,
    TrainState,
    TrainingError,
    adam_step,
    batch_step,
    fit,
    load_train_state,
    save_train_state,
    train_epoch,
)


def _toy_params(values):
    """One float64 parameter: the formula tests compare against float64
    arithmetic on fresh arrays."""
    params = ModelParameters()
    params.register("theta", values, np.float64)
    return params


# ---------------------------------------------------------------------------
# the optimizer


class TestAdamStep:
    def test_zero_gradient_without_decay_leaves_weights(self):
        params = _toy_params([1.0, -2.0, 3.0])
        state = TrainState(params)
        adam_step(params, {"theta": np.zeros(3)}, state, TrainConfig(weight_decay=0.0))
        np.testing.assert_array_equal(params["theta"], [1.0, -2.0, 3.0])
        assert state.step == 1

    def test_first_step_moves_by_learning_rate(self):
        # bias correction makes m-hat = g and v-hat = g^2, so the step is
        # lr * g / (|g| + eps) ~= lr * sign(g)
        params = _toy_params([0.0])
        cfg = TrainConfig(lr=0.01, weight_decay=0.0)
        adam_step(params, {"theta": np.ones(1)}, TrainState(params), cfg)
        assert params["theta"][0] == pytest.approx(-0.01, rel=1e-6)

    def test_quadratic_bowl_converges(self):
        params = _toy_params([1.0])
        state = TrainState(params)
        cfg = TrainConfig(lr=0.01, weight_decay=0.0)
        for _ in range(500):
            adam_step(params, {"theta": 2.0 * params["theta"]}, state, cfg)  # d/dx x^2
        assert abs(params["theta"][0]) < 1e-3

    def test_weight_decay_shrinks_idle_weights(self):
        params = _toy_params([5.0])
        state = TrainState(params)
        for _ in range(10):
            adam_step(params, {"theta": np.zeros(1)}, state, TrainConfig(lr=0.01, weight_decay=0.1))
        assert 0 < params["theta"][0] < 5.0

    @pytest.mark.parametrize("weight_decay", [0.0, 0.0005])
    def test_in_place_update_matches_the_allocating_formula(self, weight_decay):
        # the update expression on fresh arrays, the reference the in-place
        # steps must match bit for bit
        r = np.random.default_rng(6)
        params = _toy_params(r.standard_normal((5, 3)))
        cfg = TrainConfig(lr=0.01, weight_decay=weight_decay)
        state = TrainState(params)
        theta, m, v = params["theta"].copy(), np.zeros((5, 3)), np.zeros((5, 3))
        for step in range(1, 5):
            g = r.standard_normal((5, 3))
            adam_step(params, {"theta": g}, state, cfg)
            if weight_decay:
                g = g + weight_decay * theta
            m = m * cfg.adam_beta1 + (1.0 - cfg.adam_beta1) * g
            v = v * cfg.adam_beta2 + (1.0 - cfg.adam_beta2) * (g * g)
            bc1, bc2 = 1.0 - cfg.adam_beta1 ** step, 1.0 - cfg.adam_beta2 ** step
            theta = theta - cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
            assert params["theta"].tobytes() == theta.tobytes()
            assert state.m["theta"].tobytes() == m.tobytes() and state.v["theta"].tobytes() == v.tobytes()

    def test_non_finite_gradient_names_the_parameter(self):
        params = _toy_params([1.0])
        with pytest.raises(TrainingError, match="theta"):
            adam_step(params, {"theta": np.array([np.nan])}, TrainState(params), TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(lr=-0.1)
        with pytest.raises(ConfigurationError):
            TrainConfig(batch_pairs=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(adam_beta1=1.0)


# ---------------------------------------------------------------------------
# epoch loop


@pytest.fixture(scope="module")
def d64_bags(tmp_path_factory):
    """A small corpus at D=64 whose AUC does not saturate in a few epochs."""
    spec = SyntheticSpec(n_normal=16, n_abnormal=16, n_test_normal=8, n_test_abnormal=8, clip_count=16,
                         feature_dim=64, separation=0.5, seed=1)
    train, test = make_synthetic(spec, tmp_path_factory.mktemp("d64"))
    return load_bags(train), load_bags(test)


def _fresh(tiny_bags, seed=7):
    model = AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=seed)
    pos = [b for b in tiny_bags["train"] if b.label == 1]
    neg = [b for b in tiny_bags["train"] if b.label == 0]
    return model, pos, neg


class TestTrainEpoch:
    def test_too_few_bags_for_batch_rejected(self, tiny_bags):
        model, pos, neg = _fresh(tiny_bags)
        cfg = TrainConfig(batch_pairs=100)
        with pytest.raises(ConfigurationError, match="batch_pairs"):
            train_epoch(pos, neg, model, TrainState(model.params), cfg,
                        SelectionConfig(), LossConfig())

    def test_epoch_is_deterministic_given_rng_state(self, tiny_bags):
        outs = []
        for _ in range(2):
            model, pos, neg = _fresh(tiny_bags)
            cfg = TrainConfig(batch_pairs=4, lr=0.01)
            stats = train_epoch(pos, neg, model, TrainState(model.params), cfg,
                                SelectionConfig(), LossConfig())
            outs.append((stats, {name: p.copy() for name, p in model.params.items()}))
        assert outs[0][0] == outs[1][0]
        for name in outs[0][1]:
            np.testing.assert_array_equal(outs[0][1][name], outs[1][1][name])

    def test_zero_lr_keeps_weights(self, tiny_bags):
        model, pos, neg = _fresh(tiny_bags)
        before = {name: p.copy() for name, p in model.params.items()}
        cfg = TrainConfig(batch_pairs=4, lr=0.0, weight_decay=0.0)
        train_epoch(pos, neg, model, TrainState(model.params), cfg,
                    SelectionConfig(), LossConfig())
        for name, arr in before.items():
            np.testing.assert_array_equal(model.params[name], arr)

    def test_mixed_clip_counts_rejected_naming_the_video(self, tiny_bags, tmp_path):
        model, pos, neg = _fresh(tiny_bags)
        odd = pos[3]
        pos[3] = ClipFeatureBag(odd.features[:-2], odd.label, "short_video", odd.num_frames)
        with pytest.raises(ConfigurationError, match="'short_video' has 14 clips"):
            fit(pos + neg, tiny_bags["test"], model, TrainConfig(epochs=1, batch_pairs=4), tmp_path)
        assert not (tmp_path / "train_log.csv").exists()
        with pytest.raises(ConfigurationError, match="short_video"):
            train_epoch(pos, neg, model, TrainState(model.params), TrainConfig(batch_pairs=4),
                        SelectionConfig(), LossConfig())

    def test_bags_shorter_than_widest_kernel_rejected(self, tiny_bags, tmp_path):
        model = AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(k_max=17), seed=7)
        train = tiny_bags["train"]
        message = f"train video {train[0].video_id!r} has 16 clips but the largest kernel needs 17"
        with pytest.raises(ConfigurationError, match=message):
            fit(train, tiny_bags["test"], model, TrainConfig(epochs=1, batch_pairs=4), tmp_path)

    def test_stats_ranges(self, tiny_bags):
        model, pos, neg = _fresh(tiny_bags)
        cfg = TrainConfig(batch_pairs=4, lr=0.001)
        state = TrainState(model.params)
        stats = train_epoch(pos, neg, model, state, cfg,
                            SelectionConfig(), LossConfig())
        assert state.step == 3  # one Adam step per batch: 12 pairs / 4 per batch
        assert set(stats) == set(LOG_COLUMNS) - {"epoch", "auc"}
        assert 0.0 <= stats["omega"] <= 1.0
        assert stats["k"] >= 1.0
        assert np.isfinite(stats["total"])


class TestFeatureDtype:
    def test_float32_bags_give_the_bits_of_float64_bags(self, tiny_bags):
        # loaded bags stay float32 and are promoted where the maths needs
        # float64; the promotion is exact, so nothing downstream may differ
        bags32 = tiny_bags["train"]
        bags64 = [ClipFeatureBag(b.features.astype(np.float64), b.label, b.video_id, b.num_frames)
                  for b in bags32]
        assert bags32[0].features.dtype == np.float32 and bags64[0].features.dtype == np.float64
        model, _, _ = _fresh(tiny_bags)
        for a, b in zip(bags32, bags64):
            assert a.clip_means.tobytes() == b.clip_means.tobytes()
            assert a.clip_norms.tobytes() == b.clip_norms.tobytes()
            out32, out64 = model.score_bag(a.features), model.score_bag(b.features)
            assert out32.scores.tobytes() == out64.scores.tobytes()
            assert out32.gate.tobytes() == out64.gate.tobytes()
        grads = []
        for bags in (bags32, bags64):
            model, _, _ = _fresh(tiny_bags)
            pos = [b for b in bags if b.label == 1][:4]
            neg = [b for b in bags if b.label == 0][:4]
            breakdown, _ = batch_step(pos, neg, model, SelectionConfig(), LossConfig(), np.random.default_rng(3))
            grads.append({name: g.tobytes() for name, g in backward(breakdown.node).items()})
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("d", [2048, 9000])
    def test_clip_means_sum_in_float64_without_a_float64_copy(self, d):
        # widths past NumPy's pairwise summation block (128 values) and past
        # its cast buffer (8192 values)
        feats = np.random.default_rng(d).standard_normal((32, d)).astype(np.float32) * 100 + 3
        bag32 = ClipFeatureBag(feats, 0, "v", 32)
        tracemalloc.start()
        try:
            means = bag32.clip_means
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < feats.nbytes  # a float64 copy takes twice that
        assert means.tobytes() == ClipFeatureBag(feats.astype(np.float64), 0, "v", 32).clip_means.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t, d", [(32, 1), (7, 127), (32, 2048), (32, 9000)])
    def test_clip_norms_equal_the_norm_of_a_float64_copy(self, t, d, dtype):
        # np.linalg.norm(axis=1) is sqrt(add.reduce(x * x)); the bag's one
        # (T, D) temporary is the float64 squares, not a copy and its square
        feats = (np.random.default_rng(d).standard_normal((t, d)) * 100 + 3).astype(dtype)
        bag = ClipFeatureBag(feats, 0, "v", t)
        tracemalloc.start()
        try:
            norms = bag.clip_norms
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float64 copy and its square take 2 * 8 * t * d bytes; the slack
        # covers NumPy's own small allocations, which rule tiny shapes
        assert peak < 1.5 * 8 * t * d + 64 * 1024
        assert norms.tobytes() == np.linalg.norm(feats.astype(np.float64), axis=1).tobytes()


# ---------------------------------------------------------------------------
# buffers reused across batches


def _random_bags(r, n, label, t, d):
    return [ClipFeatureBag(r.standard_normal((t, d)).astype(np.float32), label, f"{label}-{i}", t)
            for i in range(n)]


class TestWorkspace:
    @pytest.mark.parametrize("use_mta", [True, False])
    @pytest.mark.parametrize("dropout", [0.5, 0.0])
    def test_reused_buffers_give_the_bits_of_fresh_ones(self, monkeypatch, use_mta, dropout):
        # two models in lockstep over three batches, one stepping through
        # its state's workspace and one on fresh arrays, each drawing its
        # masks from a generator of the same seed: nothing a batch leaves
        # in the buffers may reach the next
        r = np.random.default_rng(21)
        batches = [(_random_bags(r, 4, 1, 8, 64), _random_bags(r, 4, 0, 8, 64)) for _ in range(3)]
        runs = []
        for reuse in (True, False):
            model = AnomalyScorer(HfcConfig.for_feature_dim(64, dropout=dropout),
                                  MtaConfig() if use_mta else None, seed=3)
            state, rng = TrainState(model.params), np.random.default_rng(5)
            forwards, score_bag = [], model.score_bag

            def recording(*args, **kwargs):
                forwards.append(score_bag(*args, **kwargs))
                return forwards[-1]

            monkeypatch.setattr(model, "score_bag", recording)
            steps = []
            for pos, neg in batches:
                breakdown, _ = batch_step(pos, neg, model, SelectionConfig(), LossConfig(), rng,
                                          state.workspace if reuse else None)
                out = forwards[-1]
                record = [a.tobytes() for a in (out.scores.data, out.clean, out.gate, breakdown.node.data)]
                grads = backward(breakdown.node)
                record += [grads[name].tobytes() for name in model.params]
                adam_step(model.params, grads, state, TrainConfig())
                steps.append(record)
            runs.append(steps)
        assert runs[0] == runs[1]

    def test_default_step_keeps_every_buffer_and_moment_in_float32(self):
        b, t, d = 4, 8, 64
        r = np.random.default_rng(12)
        model = AnomalyScorer(HfcConfig.for_feature_dim(d), MtaConfig(), seed=3)
        state = TrainState(model.params)
        breakdown, _ = batch_step(_random_bags(r, b, 1, t, d), _random_bags(r, b, 0, t, d), model,
                                  SelectionConfig(), LossConfig(), np.random.default_rng(1), state.workspace)
        grads = backward(breakdown.node)
        adam_step(model.params, grads, state, TrainConfig())
        for name, p in model.params.items():
            assert p.dtype == grads[name].dtype == state.m[name].dtype == state.v[name].dtype == np.float32
        buffers = state.workspace._buffers
        assert {name: buf.dtype for name, buf in buffers.items()} == dict.fromkeys(buffers, np.float32)
        # the batch stack is a float32 copy of the bags, at half the float64 size
        assert buffers["stack"].shape == (2, b, t, d) and buffers["stack"].nbytes == b * 2 * t * d * 4

    def test_dropout_masks_follow_the_bag_not_the_layout(self):
        # the class-major stack holds bag (c, i) at c * B + i, and it gets
        # the masks that pair-by-pair draws (anomalous bag first) give bag
        # 2i + c of a pair-major stack
        b, t, d = 3, 8, 16
        r = np.random.default_rng(8)
        model = AnomalyScorer(HfcConfig.for_feature_dim(d, dropout=0.5), MtaConfig(), seed=3)
        state = TrainState(model.params)
        batch_step(_random_bags(r, b, 1, t, d), _random_bags(r, b, 0, t, d), model,
                   SelectionConfig(), LossConfig(), np.random.default_rng(4), state.workspace)
        widths = model.hfc_cfg.dims[1:-1]
        pair_major = dropout_masks(np.random.default_rng(4), 2 * b, t, widths, 0.5)
        for layer, width in enumerate(widths):
            got = state.workspace.take(f"mask{layer}", (2 * b * t, width), np.float32).reshape(2, b, t, width)
            np.testing.assert_array_equal(got, pair_major[layer].reshape(b, 2, t, width).swapaxes(0, 1))

    @pytest.mark.parametrize("use_mta", [True, False])
    def test_backward_sets_every_gradient_of_the_step(self, use_mta):
        # the chain reaches every parameter: the backward returns one
        # gradient per registry name, in the parameter's shape and dtype
        # (float32 by default, float64 as the gradient check builds it)
        for dtype in (np.float32, np.float64):
            r = np.random.default_rng(6)
            model = AnomalyScorer(HfcConfig.for_feature_dim(16), MtaConfig() if use_mta else None, seed=3,
                                  dtype=dtype)
            breakdown, _ = batch_step(_random_bags(r, 2, 1, 8, 16), _random_bags(r, 2, 0, 8, 16), model,
                                      SelectionConfig(), LossConfig(), np.random.default_rng(1),
                                      TrainState(model.params).workspace)
            grads = backward(breakdown.node)
            assert sorted(grads) == sorted(model.params) and len(grads) == (10 if use_mta else 6)
            for name, p in model.params.items():
                g = grads[name]
                assert type(p) is np.ndarray and p.dtype == dtype, name
                assert g.shape == p.shape and g.dtype == p.dtype and np.isfinite(g).all(), name

    def test_float32_step_matches_the_step_of_a_float64_copy(self, monkeypatch):
        # the same bags, weights (float32 values, exact in float64) and
        # dropout masks: float32 rounding in the head's products moves the
        # loss, the scores and each gradient by a few float32 epsilons of
        # its norm, far inside RTOL; the selection is the same
        rtol = 256 * np.finfo(np.float32).eps
        r = np.random.default_rng(1)
        pos, neg = _random_bags(r, 4, 1, 16, 2048), _random_bags(r, 4, 0, 16, 2048)
        narrow = AnomalyScorer(HfcConfig.for_feature_dim(2048), MtaConfig(), seed=3)
        for k in narrow.mta_cfg.kernel_sizes:
            narrow.params[f"mta.conv{k}.weight"][:] = r.uniform(-0.5, 0.5, k)
        wide = AnomalyScorer(HfcConfig.for_feature_dim(2048), MtaConfig(), seed=3, dtype=np.float64)
        wide.params.load_arrays(narrow.params)
        steps = []
        for model in (narrow, wide):
            forwards, score_bag = [], model.score_bag

            def recording(*args, **kwargs):
                forwards.append(score_bag(*args, **kwargs))
                return forwards[-1]

            monkeypatch.setattr(model, "score_bag", recording)
            breakdown, sel = batch_step(pos, neg, model, SelectionConfig(), LossConfig(), np.random.default_rng(5))
            steps.append((breakdown, sel, forwards[-1], backward(breakdown.node)))
        (b32, sel32, out32, g32), (b64, sel64, out64, g64) = steps
        assert np.array_equal(sel32.mask, sel64.mask) and np.array_equal(sel32.k, sel64.k)
        assert out32.scores.data.dtype == np.float64
        assert abs(b32.total - b64.total) <= rtol * abs(b64.total)
        pairs = {"scores": (out32.scores.data, out64.scores.data), "clean": (out32.clean, out64.clean)}
        pairs.update({name: (g, g64[name]) for name, g in g32.items()})
        for name, (got, want) in pairs.items():
            assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want), name

    def test_steady_state_step_allocates_under_a_megabyte(self):
        # the benchmark's batch at D=64: 32 pairs of 32-clip bags. Once two
        # batches have sized the state's workspace, a step's activations,
        # masks, gradients and Adam temporaries all live there
        r = np.random.default_rng(4)
        model = AnomalyScorer(HfcConfig.for_feature_dim(64), MtaConfig(), seed=1)
        pos, neg = _random_bags(r, 32, 1, 32, 64), _random_bags(r, 32, 0, 32, 64)
        state, cfg, rng = TrainState(model.params), TrainConfig(), np.random.default_rng(2)

        def step():
            breakdown, _ = batch_step(pos, neg, model, SelectionConfig(), LossConfig(), rng, state.workspace)
            adam_step(model.params, backward(breakdown.node), state, cfg)

        step()
        step()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 1_000_000


# ---------------------------------------------------------------------------
# full runs


class TestFit:
    def test_loss_decreases_over_training(self, trained_tiny):
        rows = trained_tiny["result"].rows
        assert rows[-1]["total"] < rows[0]["total"]

    def test_log_has_one_row_per_epoch(self, trained_tiny):
        result = trained_tiny["result"]
        text = result.log_path.read_text().strip().splitlines()
        assert text[0] == "epoch,ais,smooth,antagonistic,sparsity,total,auc,omega,k"
        assert len(text) == 1 + len(result.rows)

    def test_checkpoints_reload_and_score(self, trained_tiny, tiny_bags):
        model = load_checkpoint(trained_tiny["result"].final_checkpoint)
        from wsvad.evaluation import evaluate_bags

        result = evaluate_bags(tiny_bags["test"], model)
        assert result.overall_auc == trained_tiny["result"].rows[-1]["auc"]

    def test_best_auc_matches_log_maximum(self, trained_tiny):
        rows = trained_tiny["result"].rows
        assert trained_tiny["result"].best_auc == max(r["auc"] for r in rows if r["auc"] is not None)

    def test_empty_test_split_rejected_before_the_first_epoch(self, tiny_bags, tmp_path, monkeypatch):
        def no_epoch(*args, **kwargs):
            raise AssertionError("an epoch ran before the empty test split was rejected")

        monkeypatch.setattr(training, "train_epoch", no_epoch)
        with pytest.raises(UndefinedMetricError, match="holds no videos"):
            fit(tiny_bags["train"], [], AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7),
                TrainConfig(epochs=2, batch_pairs=8), tmp_path)
        assert not any(tmp_path.iterdir())

    def test_zero_epochs_returns_initial_weights(self, tiny_bags, tmp_path):
        model = AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7)
        before = {name: p.copy() for name, p in model.params.items()}
        result = fit(tiny_bags["train"], tiny_bags["test"], model,
                     TrainConfig(epochs=0, batch_pairs=4), tmp_path)
        assert result.rows == []
        loaded = load_checkpoint(result.final_checkpoint)
        for name, arr in before.items():
            np.testing.assert_array_equal(loaded.params[name], arr)
        # best falls back to final when nothing was evaluated
        assert result.best_checkpoint.read_bytes() == result.final_checkpoint.read_bytes()

    def test_fallback_best_replaces_the_file_atomically(self, tiny_bags, tmp_path):
        # a best.lwck hard-linked to another file: an in-place write would
        # change both, an atomic replace leaves the other file as it was
        other = tmp_path / "other.bin"
        other.write_bytes(b"unrelated")
        (tmp_path / "best.lwck").hardlink_to(other)
        model = AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7)
        result = fit(tiny_bags["train"], tiny_bags["test"], model,
                     TrainConfig(epochs=0, batch_pairs=4), tmp_path)
        assert result.best_checkpoint.read_bytes() == result.final_checkpoint.read_bytes()
        assert other.read_bytes() == b"unrelated"

    def test_same_seed_reproduces_bitwise(self, tiny_bags, tmp_path):
        outs = []
        for run in ("a", "b"):
            model = AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7)
            result = fit(tiny_bags["train"], tiny_bags["test"], model,
                         TrainConfig(epochs=3, batch_pairs=4, seed=7), tmp_path / run)
            outs.append(result)
        assert outs[0].log_path.read_bytes() == outs[1].log_path.read_bytes()
        assert outs[0].final_checkpoint.read_bytes() == outs[1].final_checkpoint.read_bytes()

    def test_resume_continues_the_step_counter(self, tiny_bags, tmp_path):
        cfg = TrainConfig(epochs=2, batch_pairs=4, seed=7)
        model = AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7)
        fit(tiny_bags["train"], tiny_bags["test"], model, cfg, tmp_path / "first")

        resumed = AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7)
        result = fit(tiny_bags["train"], tiny_bags["test"], resumed, cfg, tmp_path / "second",
                     resume_from=tmp_path / "first")
        state = load_train_state(result.state_path, resumed.params)
        # 2 epochs * 3 batches each, twice
        assert state.step == 12

    def test_resumed_best_checkpoint_holds_the_weights_of_the_best_auc(self, tiny_bags, tmp_path):
        # the first run's final weights are swapped for untrained ones, and
        # the resumed run keeps them (lr=0), so its epoch scores below the
        # first run's best; best.lwck must still score that best
        first = tmp_path / "first"
        fit(tiny_bags["train"], tiny_bags["test"], AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7),
            TrainConfig(epochs=3, batch_pairs=4, seed=7), first)
        save_checkpoint(first / "final.lwck", AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=0))
        resumed = AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7)
        result = fit(tiny_bags["train"], tiny_bags["test"], resumed, TrainConfig(lr=0.0, epochs=1, batch_pairs=4),
                     tmp_path / "second", resume_from=first)
        assert result.rows[-1]["auc"] < result.best_auc
        assert result.best_checkpoint.read_bytes() == (first / "best.lwck").read_bytes()
        assert evaluate_bags(tiny_bags["test"], load_checkpoint(result.best_checkpoint)).overall_auc == result.best_auc

    @pytest.mark.parametrize("in_place", [False, True], ids=["new-directory", "in-place"])
    def test_four_epochs_equal_two_plus_two_resumed(self, d64_bags, tmp_path, in_place):
        # the resumed run's config carries another seed: the saved
        # generator states, not the seed, drive the shuffle and dropout
        train, test = d64_bags

        def run(epochs, out, seed=1, resume_from=None):
            model = AnomalyScorer(HfcConfig.for_feature_dim(64), MtaConfig(), seed=1)
            cfg = TrainConfig(epochs=epochs, batch_pairs=4, eval_every=1, seed=seed)
            return fit(train, test, model, cfg, out, resume_from=resume_from)

        whole = run(4, tmp_path / "whole")
        run(2, tmp_path / "first")
        out = tmp_path / ("first" if in_place else "second")
        resumed = run(2, out, seed=99, resume_from=tmp_path / "first")
        assert [row["epoch"] for row in resumed.rows] == [3, 4] and resumed.best_auc == whole.best_auc
        for name in ("train_log.csv", "final.lwck", "best.lwck", "final_state.lwts"):
            assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name

    def test_resume_rejects_a_state_file_without_the_run_position(self, tiny_bags, tmp_path):
        # a state file that an older version wrote: no epoch count, no
        # generator states
        fit(tiny_bags["train"], tiny_bags["test"], AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7),
            TrainConfig(epochs=1, batch_pairs=4), tmp_path / "first")
        path = tmp_path / "first" / "final_state.lwts"
        header, arrays = read_container(path, STATE_MAGIC)
        write_container(path, STATE_MAGIC, {"step": header["step"], "best_auc": header["best_auc"]}, dict(arrays))
        with pytest.raises(CheckpointError, match="final_state.lwts.*epoch"):
            fit(tiny_bags["train"], tiny_bags["test"], AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig()),
                TrainConfig(epochs=1, batch_pairs=4), tmp_path / "second", resume_from=tmp_path / "first")

    @pytest.mark.parametrize("damage", ["extra row", "other header"])
    def test_resume_rejects_a_log_that_does_not_match_the_state(self, tiny_bags, tmp_path, damage):
        fit(tiny_bags["train"], tiny_bags["test"], AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7),
            TrainConfig(epochs=2, batch_pairs=4), tmp_path / "first")
        log = tmp_path / "first" / "train_log.csv"
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines + lines[-1:] if damage == "extra row" else ["epoch,total\n"] + lines[1:]))
        with pytest.raises(CheckpointError, match="train_log.csv.*2 rows"):
            fit(tiny_bags["train"], tiny_bags["test"], AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig()),
                TrainConfig(epochs=1, batch_pairs=4), tmp_path / "second", resume_from=tmp_path / "first")

    def test_float32_best_checkpoint_saves_back_to_the_same_bytes(self, trained_tiny, tmp_path):
        best = trained_tiny["result"].best_checkpoint
        loaded = load_checkpoint(best)
        assert all(p.dtype == np.float32 for p in loaded.params.values())
        assert save_checkpoint(tmp_path / "copy.lwck", loaded).read_bytes() == best.read_bytes()

    def test_resume_rejects_mismatched_model(self, tiny_bags, tmp_path):
        cfg = TrainConfig(epochs=1, batch_pairs=4, seed=7)
        model = AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7)
        fit(tiny_bags["train"], tiny_bags["test"], model, cfg, tmp_path / "first")
        from wsvad.model import CheckpointError

        other = AnomalyScorer(HfcConfig.for_feature_dim(24), mta_cfg=None, seed=7)
        with pytest.raises(CheckpointError):
            fit(tiny_bags["train"], tiny_bags["test"], other, cfg, tmp_path / "second",
                resume_from=tmp_path / "first")


class TestTrainStateIo:
    def test_round_trip(self, tmp_path):
        params = _toy_params([1.0, 2.0])
        state = TrainState(params)
        state.step = 41
        state.best_auc = 0.75
        state.m["theta"][:] = [0.1, -0.2]
        state.v["theta"][:] = [0.3, 0.4]
        path = save_train_state(tmp_path / "state.lwts", state)
        loaded = load_train_state(path, params)
        assert loaded.step == 41 and loaded.best_auc == 0.75
        np.testing.assert_array_equal(loaded.m["theta"], state.m["theta"])
        np.testing.assert_array_equal(loaded.v["theta"], state.v["theta"])

    def test_moments_come_back_in_the_parameter_dtype(self, tmp_path):
        # LWTS stores f8; the float32 moments of a default model return as
        # float32, bit for bit
        model = AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7)
        state = TrainState(model.params)
        r = np.random.default_rng(3)
        for store in (state.m, state.v):
            for arr in store.values():
                arr[...] = r.standard_normal(arr.shape)
        loaded = load_train_state(save_train_state(tmp_path / "state.lwts", state), model.params)
        for store, saved in ((loaded.m, state.m), (loaded.v, state.v)):
            for name, p in model.params.items():
                assert store[name].dtype == p.dtype == np.float32
                assert store[name].tobytes() == saved[name].tobytes()

    def test_missing_moment_rejected(self, tmp_path):
        params = _toy_params([1.0, 2.0])
        path = save_train_state(tmp_path / "state.lwts", TrainState(params))
        other = _toy_params([1.0, 2.0, 3.0])
        with pytest.raises(CheckpointError, match=r"state\.lwts: moment 'm\.theta'"):
            load_train_state(path, other)

    def test_moment_the_model_lacks_rejected(self, tmp_path):
        # a state saved with attention used to load into a model without it,
        # its attention moments ignored
        with_mta = AnomalyScorer(HfcConfig.for_feature_dim(24), MtaConfig(), seed=7)
        without = AnomalyScorer(HfcConfig.for_feature_dim(24), None, seed=7)
        path = save_train_state(tmp_path / "state.lwts", TrainState(with_mta.params))
        with pytest.raises(CheckpointError, match=r"state\.lwts: moment names mismatch: missing=\[\] "
                                                  r"extra=\['m\.mta\.conv3\.bias'"):
            load_train_state(path, without.params)

    def test_non_finite_moment_rejected(self, tmp_path):
        state = TrainState(_toy_params([1.0, 2.0]))
        state.v["theta"][:] = [0.5, np.inf]
        path = save_train_state(tmp_path / "state.lwts", state)
        with pytest.raises(CheckpointError, match=r"state\.lwts: moment 'v\.theta' holds a non-finite value"):
            load_train_state(path, _toy_params([1.0, 2.0]))

    def test_moment_beyond_the_parameter_range_rejected(self, tmp_path):
        # a float64 moment that no float32 holds must not load as inf
        state = TrainState(_toy_params([1.0, 2.0]))
        state.v["theta"][:] = [0.5, 1e300]
        path = save_train_state(tmp_path / "state.lwts", state)
        params = ModelParameters()
        params.register("theta", [1.0, 2.0])
        with pytest.raises(CheckpointError, match=r"state\.lwts: moment 'v\.theta' .* float32 range"):
            load_train_state(path, params)
