"""Attention block, scoring head, parameter accounting, checkpoints."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from references import conv1d_same, leaf
from wsvad.autodiff import ConfigurationError, DimensionError, Tensor, backward
from wsvad.checks import full_graph_grad_check
from wsvad.data import ClipFeatureBag
from wsvad.losses import LossConfig, total_loss
from wsvad.model import (
    AnomalyScorer,
    CheckpointError,
    HfcConfig,
    ModelParameters,
    MtaConfig,
    count_parameters,
    dropout_masks,
    hfc_forward,
    init_parameters,
    leaky_relu,
    load_checkpoint,
    mta_forward,
    _to_leaky_relu_slope,
    save_checkpoint,
    sigmoid,
    Workspace,
    write_container,
)
from wsvad.selection import SelectionConfig, SelectionResult, topk_mask
from wsvad.training import batch_step


def _leaky(x, slope):
    return np.where(x >= 0, x, slope * x)


def _reference_head(feats, cfg: HfcConfig, params: ModelParameters) -> np.ndarray:
    """Scalar-loop head forward, kept deliberately naive as an oracle."""
    t = feats.shape[0]
    out = np.zeros(t)
    n_layers = len(cfg.dims) - 1
    for r in range(t):
        h = feats[r].astype(np.float64).copy()
        for i in range(n_layers):
            w = params[f"head.{i}.weight"]
            b = params[f"head.{i}.bias"]
            nxt = np.zeros(w.shape[1])
            for j in range(w.shape[1]):
                acc = b[j]
                for k in range(w.shape[0]):
                    acc += h[k] * w[k, j]
                nxt[j] = acc
            h = _leaky(nxt, cfg.slope) if i < n_layers - 1 else nxt
        out[r] = 1.0 / (1.0 + np.exp(-h[0]))
    return out


def _reference_bag_masks(rng, t: int, widths, rate: float) -> list[np.ndarray]:
    """One bag's dropout masks from its own ceil(t * sum(widths) / 4) raw
    words, split into 16-bit slices low bits first, layer by layer."""
    thr = min(round(rate * 2**16), 2**16 - 1)
    units = t * sum(widths)
    words = [int(w) for w in rng.bit_generator.random_raw(-(-units // 4))]
    slices = np.array([(w >> (16 * k)) & 0xFFFF for w in words for k in range(4)][:units])
    ends = np.cumsum([0] + [t * w for w in widths])
    return [(slices[a:b].reshape(t, w) >= thr) * (2**16 / (2**16 - thr))
            for a, b, w in zip(ends[:-1], ends[1:], widths)]


def _reference_training_head(x, cfg: HfcConfig, params: ModelParameters, gate, masks, upstream,
                             every_row=False):
    """The head's training pass and backward on fresh arrays, with given
    dropout masks (or None): scores, clean scores, and the gradients of
    sum(upstream * scores) for W0, b0, W1, b1, W2, b2 and then the gate.
    The backward runs over the rows with a nonzero ``upstream`` as the
    package does, in two parts whose weight and bias gradients it sums: the
    leading run of such rows, then the ones after it, gathered. With
    ``every_row``, it runs over all rows in one part."""
    w0, b0, w1, b1, w2, b2 = (params[f"head.{i}.{kind}"] for i in range(3) for kind in ("weight", "bias"))
    bag_axes = x.shape[:-1]
    x = x.reshape(-1, cfg.dims[0])
    gate_col = None if gate is None else gate.reshape(-1, 1)

    def leaky(z):
        return np.maximum(z, cfg.slope * z)

    def slope(z):
        return np.where(z >= 0.0, 1.0, cfg.slope)

    def tail(h1, masks):
        h1 = h1 if masks is None else h1 * masks[0]
        z2 = h1 @ w1 + b1
        h2 = leaky(z2)
        h2 = h2 if masks is None else h2 * masks[1]
        return sigmoid(h2 @ w2 + b2), h1, z2, h2

    xw = x @ w0
    z1 = (xw if gate_col is None else xw * gate_col) + b0
    h1 = leaky(z1)
    out, h1m, z2, h2m = tail(h1, masks)
    clean = tail(h1, None)[0]
    upstream = upstream.reshape(-1, 1)
    gate_grad = np.zeros(len(x))

    def rows_backward(at):
        g = upstream[at] * out[at] * (1.0 - out[at])
        gw2, gb2 = h2m[at].T @ g, g.sum(axis=0)
        g = g @ w2.T
        if masks is not None:
            g = g * masks[1][at]
        g = g * slope(z2[at])
        gw1, gb1 = h1m[at].T @ g, g.sum(axis=0)
        g = g @ w1.T
        if masks is not None:
            g = g * masks[0][at]
        g = g * slope(z1[at])
        gb0 = g.sum(axis=0)
        if gate is not None:
            gate_grad[at] = (g * xw[at]).sum(axis=1)
            g = g * gate_col[at]
        return [x[at].T @ g, gb0, gw1, gb1, gw2, gb2]

    # the leading run of rows with a nonzero score gradient, then the ones
    # after it
    live = upstream[:, 0] != 0
    lead = live.size if every_row or live.all() else int(live.argmin())
    rest = np.flatnonzero(live[lead:]) + lead
    grads = rows_backward(slice(0, lead))
    if rest.size:
        grads = [a + b for a, b in zip(grads, rows_backward(rest))]
    if gate is not None:
        grads.append(gate_grad.reshape(gate.shape))
    return out.reshape(bag_axes), clean.reshape(bag_axes), grads


# ---------------------------------------------------------------------------
# configs


class TestConfigs:
    def test_kernel_sizes_descend_to_three(self):
        assert MtaConfig(k_max=9).kernel_sizes == (9, 7, 5, 3)
        assert MtaConfig(k_max=3).kernel_sizes == (3,)

    def test_mta_validation(self):
        with pytest.raises(ConfigurationError, match="k_max"):
            MtaConfig(k_max=4)
        with pytest.raises(ConfigurationError, match="k_max"):
            MtaConfig(k_max=1)
        with pytest.raises(ConfigurationError, match="lambda1"):
            MtaConfig(lambda1=0.0)
        with pytest.raises(ConfigurationError, match="mode"):
            MtaConfig(mode="both")

    def test_hfc_validation(self):
        with pytest.raises(ConfigurationError, match="4 entries"):
            HfcConfig(dims=(10, 5, 1))
        with pytest.raises(ConfigurationError, match="one score unit"):
            HfcConfig(dims=(10, 64, 128, 2))
        with pytest.raises(ConfigurationError, match="ascending"):
            HfcConfig(dims=(10, 128, 64, 1), head_shape="hourglass")
        with pytest.raises(ConfigurationError, match="descending"):
            HfcConfig(dims=(10, 64, 128, 1), head_shape="conventional")
        with pytest.raises(ConfigurationError, match="dropout"):
            HfcConfig(dims=(10, 64, 128, 1), dropout=1.0)

    def test_for_feature_dim_builds_both_shapes(self):
        assert HfcConfig.for_feature_dim(2048).dims == (2048, 64, 128, 1)
        conv = HfcConfig.for_feature_dim(2048, head_shape="conventional")
        assert conv.dims == (2048, 128, 64, 1)


# ---------------------------------------------------------------------------
# parameter accounting


class TestParameterCount:
    def test_default_narrow_wide_head_with_attention(self):
        n = count_parameters(MtaConfig(), HfcConfig.for_feature_dim(2048))
        assert n == 139_595

    def test_wide_narrow_head_with_attention(self):
        n = count_parameters(MtaConfig(), HfcConfig.for_feature_dim(2048, head_shape="conventional"))
        assert n == 270_603

    def test_count_ratio(self):
        small = count_parameters(MtaConfig(), HfcConfig.for_feature_dim(2048))
        big = count_parameters(MtaConfig(), HfcConfig.for_feature_dim(2048, head_shape="conventional"))
        assert small / big == pytest.approx(0.516, abs=1e-3)

    def test_registry_matches_closed_form(self):
        for mta in (MtaConfig(), MtaConfig(k_max=7), None):
            for hfc in (HfcConfig.for_feature_dim(2048), HfcConfig.for_feature_dim(24)):
                params = init_parameters(mta, hfc, seed=0)
                assert params.count_entries() == count_parameters(mta, hfc)

    def test_duplicate_registration_rejected(self):
        params = ModelParameters()
        params.register("w", np.zeros(3))
        with pytest.raises(ConfigurationError, match="duplicate"):
            params.register("w", np.zeros(3))


# ---------------------------------------------------------------------------
# attention block


class TestMta:
    # the block outputs a per-clip gate a; the attended features are a * x

    def test_zero_init_is_identity_in_residual_mode(self):
        cfg = MtaConfig(mode="residual")
        params = init_parameters(cfg, HfcConfig.for_feature_dim(6), seed=1)
        x = np.random.default_rng(2).standard_normal((8, 6))
        gate = mta_forward(x.mean(axis=1), cfg, params)
        np.testing.assert_array_equal(gate, np.ones(8))
        np.testing.assert_array_equal(gate[:, None] * x, x)

    def test_zero_init_is_zero_in_pure_mode(self):
        cfg = MtaConfig(mode="pure")
        params = init_parameters(cfg, HfcConfig.for_feature_dim(6), seed=1)
        x = np.random.default_rng(2).standard_normal((8, 6))
        gate = mta_forward(x.mean(axis=1), cfg, params)
        np.testing.assert_array_equal(gate, np.zeros(8))

    def test_identity_kernel_pure_mode_hand_example(self):
        cfg = MtaConfig(k_max=3, mode="pure")
        params = init_parameters(cfg, HfcConfig.for_feature_dim(1), seed=0)
        params["mta.conv3.weight"][:] = [0.0, 1.0, 0.0]
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        gate = mta_forward(x.mean(axis=1), cfg, params)
        np.testing.assert_allclose(gate[:, None] * x, [[0.1], [0.4], [0.9], [1.6]], atol=1e-12)

    def test_bag_shorter_than_largest_kernel_rejected(self):
        cfg = MtaConfig(k_max=5)
        params = init_parameters(cfg, HfcConfig.for_feature_dim(4), seed=0)
        with pytest.raises(ConfigurationError, match="clips"):
            mta_forward(np.ones(4), cfg, params)

    def test_residual_equals_pure_plus_input(self):
        # same kernels: residual gate = pure gate + 1, so residual output =
        # input + pure output, by construction
        hfc = HfcConfig.for_feature_dim(5)
        res_cfg, pure_cfg = MtaConfig(mode="residual"), MtaConfig(mode="pure")
        params = init_parameters(res_cfg, hfc, seed=3)
        for k in res_cfg.kernel_sizes:
            params[f"mta.conv{k}.weight"][:] = np.random.default_rng(k).uniform(-1, 1, k)
        means = np.random.default_rng(4).standard_normal((9, 5)).mean(axis=1)
        res = mta_forward(means, res_cfg, params)
        pure = mta_forward(means, pure_cfg, params)
        np.testing.assert_allclose(res, pure + 1.0, atol=1e-12)

    def test_stacked_bags_gate_each_bag_alone(self):
        cfg = MtaConfig(k_max=7)
        params = init_parameters(cfg, HfcConfig.for_feature_dim(3), seed=0)
        for k in cfg.kernel_sizes:
            params[f"mta.conv{k}.weight"][:] = np.random.default_rng(k).uniform(-1, 1, k)
        means = np.random.default_rng(6).standard_normal((4, 9))
        stacked = mta_forward(means, cfg, params)
        for n in range(4):
            np.testing.assert_allclose(stacked[n], mta_forward(means[n], cfg, params), rtol=1e-15)

    @settings(max_examples=120, deadline=None)
    @given(k_max=st.sampled_from([3, 5, 7]), mode=st.sampled_from(["residual", "pure"]),
           n=st.sampled_from([1, 2, 8, 64]), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_gate_is_per_kernel_conv1d_same_bit_for_bit(self, k_max, mode, n, data, seed):
        # the op pads the signal once for every kernel; the reference pads
        # it per kernel (``conv1d_same``); inference and training gates
        # must both equal it
        cfg = MtaConfig(k_max=k_max, mode=mode)
        t = data.draw(st.integers(k_max, 40))
        params = init_parameters(cfg, HfcConfig.for_feature_dim(3), seed=0)
        rng = np.random.default_rng(seed)
        for k in cfg.kernel_sizes:
            params[f"mta.conv{k}.weight"][:] = rng.uniform(-2, 2, k)
            params[f"mta.conv{k}.bias"][:] = rng.uniform(-1, 1)
        means = rng.standard_normal((n, t))
        for signal in (means, means[0]):
            logits = None
            for k in cfg.kernel_sizes:
                c = conv1d_same(signal, params[f"mta.conv{k}.weight"], params[f"mta.conv{k}.bias"])
                a = leaky_relu(c, cfg.slope)
                logits = a if logits is None else logits + a
            reference = logits * cfg.lambda1
            if mode == "residual":
                reference = reference + 1.0
            gate = mta_forward(signal, cfg, params)
            assert gate.shape == signal.shape
            assert gate.tobytes() == reference.tobytes()
            assert mta_forward(signal, cfg, params, training=True).data.tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# scoring head


class TestHfc:
    def test_zero_weights_give_half(self):
        cfg = HfcConfig.for_feature_dim(7)
        params = init_parameters(None, cfg, seed=0)
        for p in params.values():
            p[...] = 0.0
        scores, _ = hfc_forward(np.random.default_rng(0).standard_normal((5, 7)), cfg, params)
        np.testing.assert_array_equal(scores, np.full(5, 0.5))

    def test_matches_scalar_loop_reference(self):
        cfg = HfcConfig.for_feature_dim(9, narrow=4, wide=6)
        params = init_parameters(None, cfg, seed=11)
        feats = np.random.default_rng(12).standard_normal((6, 9))
        scores, _ = hfc_forward(feats, cfg, params)
        np.testing.assert_allclose(scores, _reference_head(feats, cfg, params), atol=1e-10)

    def test_scores_strictly_inside_unit_interval(self):
        cfg = HfcConfig.for_feature_dim(8)
        params = init_parameters(None, cfg, seed=5)
        scores, _ = hfc_forward(np.random.default_rng(6).standard_normal((20, 8)) * 10, cfg, params)
        assert (scores > 0).all() and (scores < 1).all()

    def test_wrong_feature_dim_rejected(self):
        cfg = HfcConfig.for_feature_dim(8)
        params = init_parameters(None, cfg, seed=0)
        with pytest.raises(DimensionError, match="head expects"):
            hfc_forward(np.ones((4, 9)), cfg, params)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        cfg = HfcConfig.for_feature_dim(5, narrow=3, wide=4)
        params = init_parameters(None, cfg, seed=seed)
        feats = rng.standard_normal((7, 5))
        perm = rng.permutation(7)
        base = hfc_forward(feats, cfg, params)[0]
        permuted = hfc_forward(feats[perm], cfg, params)[0]
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_dropout_only_fires_in_training(self):
        cfg = HfcConfig.for_feature_dim(8, dropout=0.5)
        params = init_parameters(None, cfg, seed=5)
        feats = np.random.default_rng(6).standard_normal((5, 8))
        a = hfc_forward(feats, cfg, params, training=False)[0]
        b = hfc_forward(feats, cfg, params, training=False)[0]
        np.testing.assert_array_equal(a, b)
        c, clean = hfc_forward(feats, cfg, params, training=True, rng=np.random.default_rng(1))
        assert not np.array_equal(a, c.data)
        # the dropout-free pass of a training forward is the inference pass
        np.testing.assert_array_equal(clean, a)

    def test_dropout_masks_match_per_bag_draws(self):
        # a stack's masks are the per-bag reference draws, bag by bag in
        # column-major order of the grid, each bag's rows where the stack
        # holds it; t * sum(widths) = 28, 35, 42, 49 takes every remainder
        # mod 4
        widths, rate = (3, 4), 0.3
        for grid in (4, (2, 3), (2, 2, 2), ()):
            for t in (4, 5, 6, 7):
                stack = np.random.default_rng(3)
                masks = dropout_masks(stack, grid, t, widths, rate, dtype=np.float64)
                per_bag = np.random.default_rng(3)
                for n in np.arange(np.prod(grid, dtype=int)).reshape(grid).ravel(order="F"):
                    for m, expected in zip(masks, _reference_bag_masks(per_bag, t, widths, rate)):
                        np.testing.assert_array_equal(m[n * t : (n + 1) * t], expected, err_msg=f"{grid}, t={t}")
                # ceil(t * sum(widths) / 4) whole words per bag, the last
                # one's spare slices unused: a state saved between batches
                # resumes the stream
                skipped = np.random.default_rng(3)
                skipped.bit_generator.advance(int(np.prod(grid)) * -(-t * sum(widths) // 4))
                assert stack.bit_generator.state == per_bag.bit_generator.state == skipped.bit_generator.state

    @pytest.mark.parametrize("rate", [0.3, 0.5])
    def test_dropout_keep_share_and_scale(self, rate):
        # a unit is kept with probability (2^16 - thr) / 2^16 and scaled by
        # its inverse, so the mask's mean is 1 in expectation
        thr = round(rate * 2**16)
        keep = (2**16 - thr) / 2**16
        masks = dropout_masks(np.random.default_rng(6), (2, 16), 32, (64, 128), rate, dtype=np.float64)
        values = np.concatenate([m.ravel() for m in masks])
        assert set(np.unique(values).tolist()) == {0.0, 2**16 / (2**16 - thr)}
        # within 5 binomial standard deviations of the keep probability
        n = values.size
        assert abs(np.count_nonzero(values) / n - keep) < 5 * np.sqrt(keep * (1 - keep) / n)
        assert abs(values.mean() - 1.0) < 5 * np.sqrt((1 - keep) / keep / n)
        if rate == 0.5:
            assert 2**16 / (2**16 - thr) == 2.0

    def test_dropout_masks_stay_finite_just_below_rate_one(self):
        # thr tops out at 2^16 - 1: the one slice value 0xFFFF is kept,
        # scaled by 2^16, and no scale divides by zero
        rate = np.nextafter(1.0, 0.0)
        masks = dropout_masks(np.random.default_rng(7), 64, 32, (64, 128), rate)
        values = np.concatenate([m.ravel() for m in masks])
        assert np.isfinite(values).all()
        assert set(np.unique(values).tolist()) <= {0.0, 2.0**16}

    def test_stacked_training_pass_matches_per_bag_passes(self):
        # float64: in float32 the flat product over the stack rounds
        # differently from each bag's own product (see hfc_forward)
        cfg = HfcConfig.for_feature_dim(6, narrow=4, wide=5)
        params = init_parameters(None, cfg, seed=2, dtype=np.float64)
        feats = np.random.default_rng(7).standard_normal((3, 5, 6))
        stacked, _ = hfc_forward(feats, cfg, params, training=True, rng=np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for n in range(3):
            one, _ = hfc_forward(feats[n], cfg, params, training=True, rng=rng)
            np.testing.assert_allclose(stacked.data[n], one.data, rtol=1e-12)

    @pytest.mark.parametrize("gated", [True, False])
    @pytest.mark.parametrize("dropout", [0.5, 0.0])
    def test_training_pass_matches_the_allocating_reference(self, gated, dropout):
        # the in-place pass and backward against the same maths on fresh
        # arrays, bit for bit, with masks drawn from the same generator; the
        # reference computes in float64. The listed clips get a zero score
        # gradient: with none, the backward is one pass over all rows; with
        # one (12 of the 13 rows after the leading run stay live) or nine
        # (4 of 13), every weight and bias gradient sums the live rows in
        # two parts
        cfg = HfcConfig.for_feature_dim(64, dropout=dropout)
        params = init_parameters(None, cfg, seed=4, dtype=np.float64)
        r = np.random.default_rng(9)
        x = r.standard_normal((3, 8, 64))
        gate = leaf(r.uniform(0.5, 1.5, (3, 8)), "gate") if gated else None
        drawn = r.standard_normal((3, 8))
        for zero_clips in ((), ((1, 3),), ((1, slice(3, None)), (2, [0, 2, 5, 6]))):
            upstream = drawn.copy()
            for bag, clips in zero_clips:
                upstream[bag, clips] = 0.0
            scores, clean = hfc_forward(x, cfg, params, gate, training=True, rng=np.random.default_rng(2))
            grads = backward(Tensor((scores.data * upstream).sum(), (scores,), lambda g: (g * upstream, {})))
            masks = (dropout_masks(np.random.default_rng(2), 3, 8, cfg.dims[1:-1], dropout, dtype=np.float64)
                     if dropout else None)
            ref_scores, ref_clean, ref_grads = _reference_training_head(
                x, cfg, params, None if gate is None else gate.data, masks, upstream)
            assert scores.data.tobytes() == ref_scores.tobytes()
            assert clean.tobytes() == ref_clean.tobytes()
            got = [grads[name] for name in params] + ([grads["gate"]] if gated else [])
            assert [g.tobytes() for g in got] == [g.tobytes() for g in ref_grads], zero_clips

    @pytest.mark.parametrize("k", [1, 3])
    def test_every_layer_reads_only_the_rows_that_carry_gradient(self, k):
        # a class-major training step of a float64 model with dropout on, at
        # K = 1 and with the second pair at K = k: every anomalous clip
        # carries gradient, and of each normal bag only its selected and
        # peak clips. The other rows, poisoned with NaN in the stack, in
        # every activation the backward reads and in both masks, are read by
        # no layer, so the head's and the attention kernels' gradients equal
        # those of the backward over every row
        b, t, d = 4, 8, 32
        r = np.random.default_rng(3)
        model = AnomalyScorer(HfcConfig.for_feature_dim(d), MtaConfig(), seed=2, dtype=np.float64)
        pos = [ClipFeatureBag(r.standard_normal((t, d)) + 0.3, 1, f"a{i}", t) for i in range(b)]
        neg = [ClipFeatureBag(r.standard_normal((t, d)), 0, f"n{i}", t) for i in range(b)]
        sel = None
        if k > 1:
            ks = np.ones(b, np.int64)
            ks[1] = k
            sel = SelectionResult(np.zeros(b), ks, topk_mask(r.random((2, b, t)), ks))
        workspace, forwards, score_bag = Workspace(), [], model.score_bag

        def recording(*args, **kwargs):
            forwards.append(score_bag(*args, **kwargs))
            return forwards[-1]

        model.score_bag = recording
        breakdown, sel = batch_step(pos, neg, model, SelectionConfig(), LossConfig(), np.random.default_rng(1),
                                    workspace, sel)
        assert sel.k.tolist() == [1, k, 1, 1]
        out = forwards[-1]
        upstream = backward(total_loss(leaf(out.scores.data, "scores"), sel).node)["scores"]
        live = upstream.reshape(-1) != 0
        assert live[: b * t].all() and live.mean() < 0.75
        n, (narrow, wide) = 2 * b * t, model.hfc_cfg.dims[1:-1]
        stack = workspace.take("stack", (2, b, t, d), np.float64)
        masks = [workspace.take("mask0", (n, narrow), np.float64), workspace.take("mask1", (n, wide), np.float64)]
        saved = [workspace.take(name, (n, narrow), np.float64) for name in ("xw", "z1", "h1")]
        saved += [workspace.take(name, (n, wide), np.float64) for name in ("z2", "h2")]
        ref = _reference_training_head(stack, model.hfc_cfg, model.params, out.gate, masks, upstream,
                                       every_row=True)[2]
        means = np.array([bag.clip_means for bag in pos + neg]).reshape(2, b, t)
        gate = mta_forward(means, model.mta_cfg, model.params, training=True)
        want = backward(Tensor((gate.data * ref[6]).sum(), (gate,), lambda g: (g * ref[6], {})))
        want.update(zip([name for name in model.params if name.startswith("head.")], ref[:6]))
        for rows in [stack.reshape(n, d)] + masks + saved:
            rows[~live] = np.nan
        got = backward(breakdown.node)
        assert got.keys() == want.keys()
        for name, value in want.items():
            np.testing.assert_allclose(got[name], value, rtol=1e-12, err_msg=name)

    def test_training_backward_runs_once(self):
        # the backward overwrites the activations it reads, so a second
        # one would read gradients; it refuses instead
        cfg = HfcConfig.for_feature_dim(6, narrow=4, wide=5)
        params = init_parameters(None, cfg, seed=2)
        scores, _ = hfc_forward(np.ones((4, 6)), cfg, params, training=True, rng=np.random.default_rng(0))
        loss = Tensor(scores.data.sum(), (scores,), lambda g: (np.broadcast_to(g, scores.data.shape), {}))
        backward(loss)
        with pytest.raises(RuntimeError, match="forward again"):
            backward(loss)


@settings(max_examples=200, deadline=None)
@given(slope=st.floats(0.0, 1.0, exclude_max=True))
def test_in_place_leaky_relu_derivative_is_exactly_one_or_the_slope(slope):
    for dtype in (np.float64, np.float32):
        z = np.array([-2.0, -5e-324, -0.0, 0.0, 5e-324, 3.0, np.inf, -np.inf, np.nan], dtype=dtype)
        expected = np.where(z >= 0.0, 1.0, slope).astype(dtype)
        assert _to_leaky_relu_slope(z.copy(), slope).tobytes() == expected.tobytes(), dtype


# ---------------------------------------------------------------------------
# bundled scorer


class TestAnomalyScorer:
    def test_score_bag_shapes(self):
        model = AnomalyScorer(HfcConfig.for_feature_dim(12), MtaConfig(), seed=7)
        feats = np.random.default_rng(8).standard_normal((10, 12))
        scores, gate = model.score_bag(feats)
        assert scores.shape == (10,)
        assert gate.shape == (10,)
        stacked, stacked_gate = model.score_bag(np.stack([feats, feats]))
        assert stacked.shape == (2, 10) and stacked_gate.shape == (2, 10)

    def test_only_a_training_pass_builds_graph_nodes(self):
        # float64: a training pass multiplies the stack in one flat product,
        # inference each bag in its own, and in float32 those differ (by
        # 3.7e-9 here); in float64 they agree on this input
        model = AnomalyScorer(HfcConfig.for_feature_dim(12, dropout=0.0), MtaConfig(), seed=7, dtype=np.float64)
        feats = np.random.default_rng(8).standard_normal((2, 10, 12))
        inference = model.score_bag(feats)
        assert type(inference.scores) is np.ndarray and type(inference.gate) is np.ndarray
        training = model.score_bag(feats, training=True)
        assert isinstance(training.scores, Tensor) and type(training.gate) is np.ndarray
        # the chain is head node -> gate node, and nothing below the gate
        (gate_node,) = training.scores._parents
        assert isinstance(gate_node, Tensor) and gate_node._parents == ()
        np.testing.assert_array_equal(gate_node.data, inference.gate)
        # between them, the two nodes hand back every parameter's gradient
        shape = training.scores.data.shape
        loss = Tensor(training.scores.data.sum(), (training.scores,), lambda g: (np.broadcast_to(g, shape), {}))
        assert sorted(backward(loss)) == sorted(model.params)
        np.testing.assert_array_equal(training.scores.data, inference.scores)

    def test_without_attention_features_pass_through(self):
        model = AnomalyScorer(HfcConfig.for_feature_dim(12), mta_cfg=None, seed=7)
        feats = np.random.default_rng(8).standard_normal((10, 12))
        scores, gate = model.score_bag(feats)
        np.testing.assert_array_equal(gate, np.ones(10))
        np.testing.assert_array_equal(scores, hfc_forward(feats, model.hfc_cfg, model.params)[0])

    @pytest.mark.parametrize("mode", ["residual", "pure"])
    def test_factored_head_matches_rescaled_features(self, mode):
        # the head applies the gate after its first product; an unfactored
        # float64 reference that rescales the features first must agree
        model = AnomalyScorer(HfcConfig.for_feature_dim(9, narrow=4, wide=6), MtaConfig(mode=mode), seed=5,
                              dtype=np.float64)
        rng = np.random.default_rng(9)
        for k in model.mta_cfg.kernel_sizes:
            model.params[f"mta.conv{k}.weight"][:] = rng.uniform(-2, 2, k)
        feats = rng.standard_normal((3, 7, 9))
        scores, gate = model.score_bag(feats)
        for n in range(3):
            rescaled = gate[n][:, None] * feats[n]
            np.testing.assert_allclose(scores[n], _reference_head(rescaled, model.hfc_cfg, model.params),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mta_cfg", [MtaConfig(), None], ids=["attention", "no-attention"])
    @pytest.mark.parametrize("t", [7, 29, 32])
    def test_stack_scores_each_bag_as_alone_bit_for_bit(self, mta_cfg, t):
        # at T=7, D=2048 one flat product over the stack rounds differently
        # from a bag's own product; inference multiplies each bag alone, in
        # the default float32 as in float64
        model = AnomalyScorer(HfcConfig.for_feature_dim(2048), mta_cfg, seed=5)
        assert model.dtype == np.float32
        rng = np.random.default_rng(t)
        if mta_cfg is not None:
            for k in mta_cfg.kernel_sizes:
                model.params[f"mta.conv{k}.weight"][:] = rng.uniform(-2, 2, k)
        stack = rng.standard_normal((5, t, 2048)).astype(np.float32)
        scores, gate = model.score_bag(stack)
        for n in range(5):
            alone, alone_gate = model.score_bag(stack[n])
            assert np.array_equal(scores[n], alone) and np.array_equal(gate[n], alone_gate)

    def test_list_of_bags_of_two_shapes_rejected(self):
        # with attention, the clip means of such a list are never computed
        for mta_cfg in (None, MtaConfig()):
            model = AnomalyScorer(HfcConfig.for_feature_dim(12), mta_cfg, seed=7)
            with pytest.raises(DimensionError, match="one shape"):
                model.score_bag([np.ones((6, 12)), np.ones((7, 12))])
            with pytest.raises(DimensionError, match="one shape"):
                model.score_bag([np.ones((6, 13))])

    def test_parameters_default_to_float32_from_the_float64_draws(self):
        cfg = HfcConfig.for_feature_dim(12)
        narrow, wide = init_parameters(MtaConfig(), cfg, seed=4), init_parameters(MtaConfig(), cfg, 4, np.float64)
        assert AnomalyScorer(cfg, MtaConfig()).dtype == np.float32
        for name, p in narrow.items():
            assert p.dtype == np.float32, name
            assert p.tobytes() == wide[name].astype(np.float32).tobytes(), name

    def test_registry_values_are_plain_arrays(self, tmp_path):
        model = AnomalyScorer(HfcConfig.for_feature_dim(12), MtaConfig(), seed=4)
        loaded = load_checkpoint(save_checkpoint(tmp_path / "m.lwck", model))
        for params in (model.params, loaded.params):
            assert len(params) == 10 and all(type(p) is np.ndarray for p in params.values())

    def test_registry_size_mismatch_rejected(self):
        hfc = HfcConfig.for_feature_dim(6)
        params = init_parameters(None, hfc, seed=0)
        with pytest.raises(ConfigurationError, match="registry"):
            AnomalyScorer(hfc, MtaConfig(), params=params)

    def test_full_graph_gradients_residual_mode(self):
        report = full_graph_grad_check(t=6, d=8, mode="residual", seed=3)
        assert report.max_rel_error < 1e-4

    def test_full_graph_gradients_pure_mode(self):
        report = full_graph_grad_check(t=6, d=8, mode="pure", seed=3)
        assert report.max_rel_error < 1e-4

    def test_full_graph_gradients_without_attention(self):
        report = full_graph_grad_check(t=6, d=8, seed=3, use_mta=False)
        assert report.max_rel_error < 1e-4


# ---------------------------------------------------------------------------
# checkpoints


class TestCheckpoints:
    def _model(self, seed=9):
        return AnomalyScorer(HfcConfig.for_feature_dim(10, narrow=4, wide=6), MtaConfig(), seed=seed)

    def test_round_trip_preserves_scores_bitwise(self, tmp_path):
        model = self._model()
        path = save_checkpoint(tmp_path / "m.lwck", model)
        loaded = load_checkpoint(path)
        feats = np.random.default_rng(1).standard_normal((8, 10))
        a, _ = model.score_bag(feats)
        b, _ = loaded.score_bag(feats)
        np.testing.assert_array_equal(a, b)

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        # the loaded values replace every entry, so a load builds its
        # registry without a random generator
        path = save_checkpoint(tmp_path / "m.lwck", self._model())

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random init")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = load_checkpoint(path)
        assert save_checkpoint(tmp_path / "again.lwck", loaded).read_bytes() == path.read_bytes()

    def test_float64_checkpoint_is_rounded_to_float32_once(self, tmp_path):
        # a checkpoint a float64 model wrote loads into float32 parameters,
        # each value rounded to nearest, and scores as the float64 model
        # does up to float32 rounding
        wide = AnomalyScorer(HfcConfig.for_feature_dim(10, narrow=4, wide=6), MtaConfig(), seed=9,
                             dtype=np.float64)
        rng = np.random.default_rng(3)
        for k in wide.mta_cfg.kernel_sizes:
            wide.params[f"mta.conv{k}.weight"][:] = rng.uniform(-2, 2, k)
        loaded = load_checkpoint(save_checkpoint(tmp_path / "f64.lwck", wide))
        assert loaded.dtype == np.float32
        for name, p in wide.params.items():
            assert loaded.params[name].tobytes() == p.astype(np.float32).tobytes(), name
        feats = rng.standard_normal((3, 12, 10)).astype(np.float32)
        np.testing.assert_allclose(loaded.score_bag(feats).scores, wide.score_bag(feats).scores,
                                   rtol=64 * np.finfo(np.float32).eps)

    def test_value_beyond_float32_range_rejected(self, tmp_path):
        model = self._model()
        arrays = {name: a.astype(np.float64) for name, a in model.params.items()}
        arrays["head.0.bias"][1] = 1e300
        path = write_container(tmp_path / "big.lwck", b"LWCK", model.config_dict(), arrays)
        with pytest.raises(CheckpointError, match="'head.0.bias' holds values outside the float32 range"):
            load_checkpoint(path)

    def test_non_finite_value_rejected(self, tmp_path):
        # a NaN weight must not load and fail the fit steps later
        model = self._model()
        arrays = {name: a.astype(np.float64) for name, a in model.params.items()}
        arrays["head.0.weight"][2, 1] = np.nan
        path = write_container(tmp_path / "nan.lwck", b"LWCK", model.config_dict(), arrays)
        with pytest.raises(CheckpointError, match=r"nan\.lwck: parameter 'head\.0\.weight' holds a non-finite"):
            load_checkpoint(path)

    def test_round_trip_preserves_config(self, tmp_path):
        model = self._model()
        loaded = load_checkpoint(save_checkpoint(tmp_path / "m.lwck", model))
        assert loaded.config_dict() == model.config_dict()

    def test_config_mismatch_rejected(self, tmp_path):
        path = save_checkpoint(tmp_path / "m.lwck", self._model())
        other = AnomalyScorer(HfcConfig.for_feature_dim(10, narrow=4, wide=6), mta_cfg=None)
        with pytest.raises(CheckpointError, match="does not match"):
            load_checkpoint(path, expected_config=other.config_dict())

    def test_matching_expected_config_accepted(self, tmp_path):
        model = self._model()
        path = save_checkpoint(tmp_path / "m.lwck", model)
        load_checkpoint(path, expected_config=model.config_dict())

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.lwck"
        p.write_bytes(b"WHAT" + bytes(32))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_truncation_rejected(self, tmp_path):
        path = save_checkpoint(tmp_path / "m.lwck", self._model())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = save_checkpoint(tmp_path / "m.lwck", self._model())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_container_bytes_follow_the_layout(self, tmp_path):
        # each array's payload is its values as little-endian float64, in
        # C order, whatever the array's dtype and layout
        r = np.random.default_rng(5)
        arrays = {"f32": r.standard_normal((3, 4)).astype(np.float32), "f64": r.standard_normal((2, 5)).T,
                  "scalar": np.float64(0.25)}
        config = {"b": [1, 2], "a": "x"}
        path = write_container(tmp_path / "c.bin", b"LWCK", config, arrays)
        cfg_bytes = b'{"a": "x", "b": [1, 2]}'
        want = b"LWCK" + struct.pack("<HI", 1, len(cfg_bytes)) + cfg_bytes + struct.pack("<I", len(arrays))
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            want += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", arr.ndim)
            want += b"".join(struct.pack("<I", dim) for dim in arr.shape)
            want += arr.astype("<f8").tobytes()
        assert path.read_bytes() == want

    def test_same_model_saves_identical_bytes(self, tmp_path):
        a = save_checkpoint(tmp_path / "a.lwck", self._model())
        b = save_checkpoint(tmp_path / "b.lwck", self._model())
        assert a.read_bytes() == b.read_bytes()

    def test_interrupted_write_leaves_the_previous_file(self, tmp_path):
        path = save_checkpoint(tmp_path / "m.lwck", self._model())
        before = path.read_bytes()
        # the second tensor cannot be converted, so the write fails after
        # the header and the first tensor
        with pytest.raises(ValueError):
            write_container(path, b"LWCK", {}, {"a": np.zeros(3), "b": "not a number"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.lwck"]


@pytest.fixture(scope="module")
def d16_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("damaged") / "d16.lwck"
    return save_checkpoint(path, AnomalyScorer(HfcConfig.for_feature_dim(16), MtaConfig(), seed=4))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_damaged_checkpoint_loads_or_raises_checkpoint_error(d16_checkpoint, data):
    # truncations and single-bit flips; most flips are drawn in the header
    # and config block, where the structure lives, the rest anywhere
    blob = bytearray(d16_checkpoint.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        limit = data.draw(st.sampled_from([8 * 400, 8 * len(blob)]), label="region")
        bit = data.draw(st.integers(0, limit - 1), label="bit")
        blob[bit // 8] ^= 1 << (bit % 8)
    path = d16_checkpoint.with_name("damaged.lwck")
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except CheckpointError as err:
        assert str(path) in str(err)
