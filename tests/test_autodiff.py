"""Layer forwards, the chain's backward, and the three hand-differentiated ops
(attention gate, scoring head, objective) against hand-derived and
finite-difference gradients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from references import conv1d_same, leaf
from wsvad.autodiff import (
    ConfigurationError,
    DimensionError,
    Tensor,
    backward,
    grad_check,
    record_kink_margins,
)
from wsvad.losses import AIS_EPS, LossConfig, antagonistic_loss, total_loss
from wsvad.model import (
    HfcConfig,
    MtaConfig,
    hfc_forward,
    init_parameters,
    leaky_relu,
    mta_forward,
    sigmoid,
)
from wsvad.selection import SelectionResult, topk_mask

rng = np.random.default_rng


# ---------------------------------------------------------------------------
# forward values


class TestConv1dSame:
    def test_identity_kernel(self):
        out = conv1d_same(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0]))
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0, 4.0])

    def test_hand_convolution_with_zero_padding(self):
        out = conv1d_same(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 0.0, -1.0]), np.array([0.0]))
        np.testing.assert_array_equal(out, [-2.0, -2.0, -2.0, 3.0])

    def test_zero_kernel_bias_only(self):
        out = conv1d_same(np.array([5.0, 5.0, 5.0]), np.array([0.0, 0.0, 0.0]), np.array([2.0]))
        np.testing.assert_array_equal(out, [2.0, 2.0, 2.0])

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            conv1d_same(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0]), np.array([0.0]))

    def test_kernel_longer_than_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            conv1d_same(np.array([1.0, 2.0]), np.array([1.0, 1.0, 1.0]), np.array([0.0]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 40), st.sampled_from([3, 5, 7]), st.integers(0, 2**32 - 1))
    def test_identity_kernel_for_every_length(self, t, k, seed):
        if k > t:
            k = 3
        x = rng(seed).standard_normal(t)
        w = np.zeros(k)
        w[k // 2] = 1.0
        out = conv1d_same(x, w, np.array([0.0]))
        np.testing.assert_array_equal(out, x)


class TestLeakyRelu:
    def test_positive_passthrough(self):
        assert leaky_relu(np.array([3.0]), 0.5)[0] == 3.0

    def test_negative_scaled(self):
        assert leaky_relu(np.array([-2.0]), 0.5)[0] == -1.0

    def test_zero(self):
        assert leaky_relu(np.array([0.0]), 0.5)[0] == 0.0

    def test_bad_slope_rejected(self):
        with pytest.raises(ConfigurationError):
            leaky_relu(np.array([1.0]), 1.0)

    @pytest.mark.parametrize("slope", [0.0, 0.5, 0.99])
    def test_bitwise_equal_to_branch_form(self, slope):
        # max(x, slope*x) picks the same float as the x >= 0 branch select,
        # signed zeros and subnormals included
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.concatenate([
            [0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-310, -1e-310, 1e308, -1e308],
            rng(3).standard_normal(2048 * 8) * 10.0 ** rng(4).integers(-300, 300, 2048 * 8),
        ])
        out = leaky_relu(x, slope)
        assert out.tobytes() == np.where(x >= 0.0, x, slope * x).tobytes()


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturation_without_overflow(self):
        hi = sigmoid(np.array([800.0]))[0]
        lo = sigmoid(np.array([-800.0]))[0]
        assert hi == 1.0 and lo == 0.0
        assert np.isfinite([hi, lo]).all()

    def test_closed_form(self):
        assert sigmoid(np.array([np.log(3.0)]))[0] == pytest.approx(0.75, abs=1e-15)


# ---------------------------------------------------------------------------
# test-local ops for the chain's backward


def _dot(node, weights):
    """sum(weights * node); its gradient is ``weights``."""
    return Tensor((weights * node.data).sum(), (node,), lambda g: (g * weights, {}))


def _square_sum(node):
    """sum(node ** 2); its gradient is 2 * node."""
    return Tensor((node.data * node.data).sum(), (node,), lambda g: (2.0 * g * node.data, {}))


def _add(a, b):
    return Tensor(a.data + b.data, (a, b), lambda g: (g, {}))


# ---------------------------------------------------------------------------
# backward


class TestBackward:
    def test_linear_grad_matches_hand_derivation(self):
        # one clip through a head of width 1 with every pre-activation
        # positive: z1 = gate * (x . W0) = 2, z2 = W1 * z1 = 3, and
        # sigmoid(W2 * z2 + b2) = sigmoid(0), so dL/dlogit = 1/4,
        # dL/dz2 = -1/4 and dL/dz1 = -3/8; then dW0 = gate * x * dL/dz1 and
        # dgate = (x . W0) * dL/dz1
        cfg = HfcConfig.for_feature_dim(2, narrow=1, wide=2, dropout=0.0)
        params = init_parameters(None, cfg)
        for name, values in {
            "head.0.weight": [[0.5], [0.25]], "head.0.bias": [0.0],
            "head.1.weight": [[1.5, 0.0]], "head.1.bias": [0.0, 0.0],
            "head.2.weight": [[-1.0], [0.0]], "head.2.bias": [3.0],
        }.items():
            params[name][...] = values
        gate = leaf(np.array([2.0]), "gate")
        scores, _ = hfc_forward(np.array([[1.0, 2.0]]), cfg, params, gate, training=True)
        grads = backward(_dot(scores, np.array([1.0])))
        np.testing.assert_array_equal(grads["head.0.weight"], [[-0.75], [-1.5]])
        np.testing.assert_array_equal(grads["head.0.bias"], [-0.375])
        np.testing.assert_array_equal(grads["gate"], [-0.375])
        np.testing.assert_array_equal(grads["head.1.weight"], [[-0.5, 0.0]])
        np.testing.assert_array_equal(grads["head.2.weight"], [[0.75], [0.0]])
        np.testing.assert_array_equal(grads["head.2.bias"], [0.25])

    def test_objective_grad_matches_hand_derivation(self):
        # one pair, K=1 on the first clips, antagonistic term off:
        # AIS gives -1/(0.8+eps) and 1/(1-0.2+eps) at the selected clips;
        # smoothness diffs d = (-0.2, 0.1) over 2 steps give 2*d/2 = d,
        # spread as (-d0, d0 - d1, d1) over the positive clips
        scores = leaf(np.array([[0.8, 0.6, 0.7], [0.2, 0.1, 0.3]]), "scores")
        first = np.array([[True, False, False], [True, False, False]])
        sel = SelectionResult(omega=1.0, k=1, mask=first)
        grads = backward(total_loss(scores, sel, LossConfig(use_antagonistic=False)).node)
        expected = [[-1 / (0.8 + AIS_EPS) + 0.2, -0.3, 0.1], [1 / (1 - 0.2 + AIS_EPS), 0.0, 0.0]]
        np.testing.assert_allclose(grads["scores"], expected, rtol=1e-12, atol=1e-15)

    def test_dead_parameter_gets_zero_gradient(self):
        # the backward returns the gradients of the leaves it reaches and no
        # other name; grad_check reads a missing name as an exact zero
        used = leaf(np.array([2.0]), "used")
        grads = backward(_dot(used, np.array([3.0])))
        assert list(grads) == ["used"]
        np.testing.assert_array_equal(grads["used"], [3.0])

    def test_second_backward_replaces_the_gradient(self):
        # each backward returns its own gradients: nothing carries over
        p = leaf(np.array([1.0]), "p")
        first = backward(_dot(p, np.array([2.0])))
        second = backward(_dot(p, np.array([-5.0])))
        np.testing.assert_array_equal(first["p"], [2.0])
        np.testing.assert_array_equal(second["p"], [-5.0])

    def test_op_with_two_op_inputs_raises(self):
        p = leaf(np.array([1.5, -2.0]), "p")
        with pytest.raises(ValueError, match="two op inputs"):
            backward(_add(_dot(p, np.ones(2)), _square_sum(p)))

    def test_scalar_loss_required(self):
        p = leaf(np.array([1.0, 2.0]), "p")
        with pytest.raises(DimensionError):
            backward(_add(p, p))
        with pytest.raises(TypeError):
            backward(np.array(1.0))

    def test_no_grad_returns_plain_arrays(self):
        # an inference forward builds no graph node
        mta_cfg = MtaConfig(k_max=3)
        hfc_cfg = HfcConfig.for_feature_dim(4, narrow=3, wide=5)
        params = init_parameters(mta_cfg, hfc_cfg, seed=1)
        x = rng(1).standard_normal((2, 5, 4))
        gate = mta_forward(x.mean(axis=-1), mta_cfg, params)
        scores, clean = hfc_forward(x, hfc_cfg, params, gate)
        for out in (gate, scores, clean):
            assert isinstance(out, np.ndarray)
            assert not isinstance(out, Tensor)

    def test_gather_and_adjacent_diff_gradients(self):
        # the objective reads the scores through the top-K masks (a gather
        # of every other clip), their peaks and their adjacent differences
        scores = leaf(np.array([[0.3, 0.9, 0.1, 0.5], [0.2, 0.6, 0.35, 0.4]]), "scores")
        odd = np.array([[False, True, False, True], [False, True, False, True]])
        sel = SelectionResult(omega=1.0, k=2, mask=odd)
        report = grad_check(lambda: total_loss(scores, sel).node, {"scores": scores.data}, eps=1e-5, tol=1e-6)
        assert report.passed, report.summary()

    def test_composite_graph_matches_finite_differences(self):
        # gate -> head (dropout on, masks fixed by the seed) -> objective
        r = rng(2)
        mta_cfg = MtaConfig(k_max=3)
        hfc_cfg = HfcConfig.for_feature_dim(4, narrow=3, wide=5, dropout=0.3)
        params = init_parameters(mta_cfg, hfc_cfg, seed=2, dtype=np.float64)
        params["mta.conv3.weight"][:] = r.uniform(-1, 1, 3)
        # a class-major stack (2, B, T, D) of B = 2 pairs
        x = r.standard_normal((2, 2, 5, 4))
        k = np.array([1, 3])
        sel = SelectionResult(np.ones(2), k, topk_mask(r.uniform(size=(2, 2, 5)), k))

        def build():
            gate = mta_forward(x.mean(axis=-1), mta_cfg, params, training=True)
            scores, _ = hfc_forward(x, hfc_cfg, params, gate, training=True, rng=rng(5))
            return total_loss(scores, sel).node

        report = _checked(params, build)
        assert report is not None and report.passed, report and report.summary()


class TestGradCheck:
    def test_linear_only_graph_is_tight(self):
        r = rng(4)
        w = leaf(r.standard_normal((6, 2)), "w")
        weights = r.standard_normal((6, 2))
        report = grad_check(lambda: _dot(w, weights), {"w": w.data}, eps=1e-5, tol=1e-6)
        assert report.max_rel_error < 1e-6, report.summary()

    def test_dead_parameter_compares_exactly(self):
        used = leaf(np.array([1.0]), "used")
        dead = leaf(np.array([3.0]), "dead")
        report = grad_check(lambda: _square_sum(used), {"used": used.data, "dead": dead.data}, eps=1e-5, tol=1e-6)
        assert report.passed
        assert report.per_parameter["dead"] == 0.0

    def test_kink_margin_recorder(self):
        with record_kink_margins() as margins:
            leaky_relu(np.array([0.5, -0.2]), 0.5)
            antagonistic_loss(np.array([1.0, 3.0, 2.5]), np.array([0.0, 0.4]))
        assert margins == [pytest.approx(0.2), pytest.approx(0.5), pytest.approx(0.4)]


# ---------------------------------------------------------------------------
# the three ops against central differences
#
# Each case returns (parameters by name, build). Central differences are only valid
# where the op is smooth, so a draw whose leaky ReLU inputs or top-2 score
# gaps come within KINK_MARGIN of a kink is skipped; an eps = 1e-5
# perturbation moves them by far less. Differences at that eps need float64,
# so every case builds float64 parameters.

KINK_MARGIN = 1e-3


def _near_kink(build) -> bool:
    with record_kink_margins() as margins:
        build()
    return bool(margins) and min(margins) < KINK_MARGIN


def _checked(params, build):
    """grad_check of ``build``, or None when the input sits near a kink."""
    if _near_kink(build):
        return None
    return grad_check(build, params, eps=1e-5, tol=1e-4)


def _gate_case(r, mode="residual", k_max=5, n_bags=2, t=7):
    """The gate over random kernels and clip means, read out by a fixed
    weighted sum."""
    cfg = MtaConfig(k_max=k_max, mode=mode)
    params = init_parameters(cfg, HfcConfig.for_feature_dim(1), seed=0, dtype=np.float64)
    kernels = {name: p for name, p in params.items() if name.startswith("mta.")}
    for p in kernels.values():
        p[...] = r.uniform(-1, 1, p.shape)
    means = r.standard_normal((n_bags, t))
    weights = r.standard_normal((n_bags, t))
    return kernels, lambda: _dot(mta_forward(means, cfg, params, training=True), weights)


def _head_case(r, gated=True, dropout=0.5, n_bags=2, t=4, mask_draws=1):
    """The head on random features; with ``gated`` its gate is a parameter
    too, without it the head runs as with attention off. Dropout masks are
    redrawn from one seed on every build. With ``mask_draws`` > 1 that seed
    is drawn again from ``r`` until the input is kink-safe, at most that
    many times in all."""
    cfg = HfcConfig.for_feature_dim(5, narrow=3, wide=4, dropout=dropout)
    params = init_parameters(None, cfg, seed=int(r.integers(2**31)), dtype=np.float64)
    x = r.standard_normal((n_bags, t, 5))
    gate = leaf(r.uniform(0.5, 1.5, (n_bags, t)), "gate") if gated else None
    weights = r.standard_normal((n_bags, t))
    mask_seed = int(r.integers(2**31))

    def build():
        scores, _ = hfc_forward(x, cfg, params, gate, training=True, rng=rng(mask_seed))
        return _dot(scores, weights)

    draws = 1
    while mask_draws > 1 and _near_kink(build):
        if draws == mask_draws:
            raise RuntimeError(f"no kink-safe dropout mask in {mask_draws} draws")
        mask_seed = int(r.integers(2**31))
        draws += 1
    return {**params, **({"gate": gate.data} if gated else {})}, build


def _objective_case(r, n_pairs=3, t=6, antagonistic=True):
    """The objective on random scores of one pair (n_pairs=0, shape (2, T))
    or of n_pairs pairs (2, n_pairs, T), with K drawn per pair."""
    bags = () if n_pairs == 0 else (n_pairs,)
    scores = leaf(r.uniform(0.05, 0.95, (2,) + bags + (t,)), "scores")
    k = r.integers(1, t + 1, bags)
    sel = SelectionResult(np.ones(bags), k, topk_mask(r.uniform(size=(2,) + bags + (t,)), k))
    cfg = LossConfig(use_antagonistic=antagonistic)
    return {"scores": scores.data}, lambda: total_loss(scores, sel, cfg).node


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["residual", "pure"]),
       k_max=st.sampled_from([3, 5, 7]), n_bags=st.integers(1, 3), extra_clips=st.integers(0, 4))
def test_gate_op_matches_finite_differences(seed, mode, k_max, n_bags, extra_clips):
    report = _checked(*_gate_case(rng(seed), mode, k_max, n_bags, k_max + extra_clips))
    assume(report is not None)
    assert report.passed, report.summary()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gated=st.booleans(), dropout=st.sampled_from([0.0, 0.5]),
       n_bags=st.integers(1, 3), t=st.integers(1, 5))
def test_head_op_matches_finite_differences(seed, gated, dropout, n_bags, t):
    report = _checked(*_head_case(rng(seed), gated, dropout, n_bags, t))
    assume(report is not None)
    assert report.passed, report.summary()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_pairs=st.integers(0, 4), t=st.integers(2, 8),
       antagonistic=st.booleans())
def test_objective_op_matches_finite_differences(seed, n_pairs, t, antagonistic):
    report = _checked(*_objective_case(rng(seed), n_pairs, t, antagonistic))
    assume(report is not None)
    assert report.passed, report.summary()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_op_matches_finite_differences(seed):
    cases = {
        "gate residual": _gate_case(rng(seed)),
        "gate pure": _gate_case(rng(seed), mode="pure"),
        "head gated": _head_case(rng(seed), mask_draws=20),
        "head without attention": _head_case(rng(seed), gated=False, dropout=0.0),
        "objective": _objective_case(rng(seed)),
        "objective, one pair": _objective_case(rng(seed), n_pairs=0),
    }
    for name, (params, build) in cases.items():
        report = _checked(params, build)
        assert report is not None, f"{name}: seed {seed} draws an input next to a kink"
        assert report.passed, f"{name}: {report.summary()}"


def test_leaky_relu_fd_away_from_kink():
    # an identity kernel feeds the clip means straight into the gate's leaky
    # ReLU; FD straddles the kink at 0, so keep entries away from it
    cfg = MtaConfig(k_max=3, mode="pure")
    params = init_parameters(cfg, HfcConfig.for_feature_dim(1), dtype=np.float64)
    params["mta.conv3.weight"][...] = [0.0, 1.0, 0.0]
    params["mta.conv3.bias"][...] = 0.0
    means = np.array([-1.8, -0.6, 0.4, 1.2, 1.9])
    kernels = {name: params[name] for name in ("mta.conv3.weight", "mta.conv3.bias")}
    report = grad_check(lambda: _dot(mta_forward(means, cfg, params, training=True), np.ones(5)),
                        kernels, eps=1e-5, tol=1e-6)
    assert report.passed, report.summary()


def test_forward_backward_deterministic():
    def run():
        params, build = _head_case(rng(33))
        loss = build()
        grads = backward(loss)
        return [loss.data.tobytes()] + [grads[name].tobytes() for name in params]

    assert run() == run()


def test_forward_values_stay_finite_on_finite_input():
    x = rng(8).uniform(-700, 700, (5, 4))
    assert np.isfinite(sigmoid(x)).all()
