"""Engine tests: frozen forward values, hand-derived and finite-difference
gradients, and the algebraic properties every op must satisfy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsvad.autodiff import (
    ConfigurationError,
    DimensionError,
    Parameter,
    Tensor,
    adjacent_diff,
    backward,
    conv1d_same,
    grad_check,
    leaky_relu,
    linear,
    log,
    no_grad,
    record_kink_margins,
    sigmoid,
    value,
)

rng = np.random.default_rng


# ---------------------------------------------------------------------------
# forward values


class TestLinear:
    def test_identity_weight(self):
        out = linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(value(out), [[1.0, 2.0]])

    def test_bias_shift(self):
        out = linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(value(out), [[4.0, 6.0]])

    def test_hand_matrix_multiply(self):
        out = linear(Tensor([[2.0, 3.0]]), Tensor([[1.0, 1.0], [1.0, -1.0]]), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(value(out), [[5.0, -1.0]])

    def test_shape_mismatch_names_operation(self):
        with pytest.raises(DimensionError, match="linear"):
            linear(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity_without_bias(self, seed, alpha, beta):
        r = rng(seed)
        x = r.standard_normal((3, 4))
        y = r.standard_normal((3, 4))
        w = Tensor(r.standard_normal((4, 2)))
        b = Tensor(np.zeros(2))
        lhs = value(linear(Tensor(alpha * x + beta * y), w, b))
        rhs = alpha * value(linear(Tensor(x), w, b)) + beta * value(linear(Tensor(y), w, b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestConv1dSame:
    def test_identity_kernel(self):
        out = conv1d_same(Tensor([1.0, 2.0, 3.0, 4.0]), Tensor([0.0, 1.0, 0.0]), Tensor([0.0]))
        np.testing.assert_array_equal(value(out), [1.0, 2.0, 3.0, 4.0])

    def test_hand_convolution_with_zero_padding(self):
        out = conv1d_same(Tensor([1.0, 2.0, 3.0, 4.0]), Tensor([1.0, 0.0, -1.0]), Tensor([0.0]))
        np.testing.assert_array_equal(value(out), [-2.0, -2.0, -2.0, 3.0])

    def test_zero_kernel_bias_only(self):
        out = conv1d_same(Tensor([5.0, 5.0, 5.0]), Tensor([0.0, 0.0, 0.0]), Tensor([2.0]))
        np.testing.assert_array_equal(value(out), [2.0, 2.0, 2.0])

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            conv1d_same(Tensor([1.0, 2.0, 3.0, 4.0]), Tensor([1.0, 1.0]), Tensor([0.0]))

    def test_kernel_longer_than_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            conv1d_same(Tensor([1.0, 2.0]), Tensor([1.0, 1.0, 1.0]), Tensor([0.0]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 40), st.sampled_from([3, 5, 7]), st.integers(0, 2**32 - 1))
    def test_identity_kernel_for_every_length(self, t, k, seed):
        if k > t:
            k = 3
        x = rng(seed).standard_normal(t)
        w = np.zeros(k)
        w[k // 2] = 1.0
        out = conv1d_same(Tensor(x), Tensor(w), Tensor([0.0]))
        np.testing.assert_array_equal(value(out), x)


class TestLeakyRelu:
    def test_positive_passthrough(self):
        assert value(leaky_relu(Tensor([3.0]), 0.5))[0] == 3.0

    def test_negative_scaled(self):
        assert value(leaky_relu(Tensor([-2.0]), 0.5))[0] == -1.0

    def test_zero(self):
        assert value(leaky_relu(Tensor([0.0]), 0.5))[0] == 0.0

    def test_bad_slope_rejected(self):
        with pytest.raises(ConfigurationError):
            leaky_relu(Tensor([1.0]), 1.0)

    @pytest.mark.parametrize("slope", [0.0, 0.5, 0.99])
    def test_bitwise_equal_to_branch_form(self, slope):
        # max(x, slope*x) picks the same float as the x >= 0 branch select,
        # signed zeros and subnormals included
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.concatenate([
            [0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-310, -1e-310, 1e308, -1e308],
            rng(3).standard_normal(2048 * 8) * 10.0 ** rng(4).integers(-300, 300, 2048 * 8),
        ])
        out = value(leaky_relu(Tensor(x), slope))
        assert out.tobytes() == np.where(x >= 0.0, x, slope * x).tobytes()


class TestSigmoid:
    def test_symmetry_point(self):
        assert value(sigmoid(Tensor([0.0])))[0] == 0.5

    def test_saturation_without_overflow(self):
        hi = value(sigmoid(Tensor([800.0])))[0]
        lo = value(sigmoid(Tensor([-800.0])))[0]
        assert hi == 1.0 and lo == 0.0
        assert np.isfinite([hi, lo]).all()

    def test_closed_form(self):
        assert value(sigmoid(Tensor([np.log(3.0)])))[0] == pytest.approx(0.75, abs=1e-15)


# ---------------------------------------------------------------------------
# backward


class TestBackward:
    def test_linear_grad_matches_hand_derivation(self):
        # loss = sum(x @ W), so dloss/dW[i,o] = sum_n x[n,i]
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = Parameter(np.zeros((2, 2)), name="w")
        b = Parameter(np.zeros(2), name="b")
        loss = linear(Tensor(x), w, b).sum()
        backward(loss)
        np.testing.assert_array_equal(w.grad, np.array([[4.0, 4.0], [6.0, 6.0]]))
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_dead_parameter_gets_zero_gradient(self):
        used = Parameter(np.array([2.0]), name="used")
        dead = Parameter(np.array([5.0]), name="dead")
        backward((used * 3.0).sum())
        np.testing.assert_array_equal(dead.grad, [0.0])

    def test_gradients_accumulate_until_zero_grad(self):
        p = Parameter(np.array([1.0]), name="p")
        backward((p * 2.0).sum())
        backward((p * 2.0).sum())
        np.testing.assert_array_equal(p.grad, [4.0])
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_scalar_loss_required(self):
        p = Parameter(np.array([1.0, 2.0]), name="p")
        with pytest.raises(DimensionError):
            backward(p * 1.0)

    def test_no_grad_returns_plain_arrays(self):
        p = Parameter(np.array([1.0, 2.0]), name="p")
        with no_grad():
            out = sigmoid(leaky_relu(p * 2.0, 0.5))
        assert isinstance(out, np.ndarray)
        assert not isinstance(out, Tensor)

    def test_composite_graph_matches_finite_differences(self):
        r = rng(2)
        w = Parameter(r.standard_normal((4, 3)), name="w")
        b = Parameter(r.standard_normal(3), name="b")
        k = Parameter(r.uniform(-1, 1, 3), name="k")
        kb = Parameter(r.uniform(-1, 1, 1), name="kb")
        x = r.standard_normal((5, 4))

        def build():
            h = leaky_relu(linear(Tensor(x), w, b), 0.5)
            g = h.mean(axis=1)
            c = sigmoid(conv1d_same(g, k, kb))
            return (c * c).mean() + log(c.mean() + 1e-7)

        report = grad_check(build, [w, b, k, kb], eps=1e-5, tol=1e-4)
        assert report.passed, report.summary()

    def test_gather_and_adjacent_diff_gradients(self):
        p = Parameter(np.array([0.3, 0.9, 0.1, 0.5]), name="p")

        def build():
            return p[1::2].mean() + (adjacent_diff(p) * adjacent_diff(p)).sum()

        report = grad_check(build, [p], eps=1e-5, tol=1e-6)
        assert report.passed, report.summary()


class TestGradCheck:
    def test_linear_only_graph_is_tight(self):
        r = rng(4)
        w = Parameter(r.standard_normal((6, 2)), name="w")
        b = Parameter(r.standard_normal(2), name="b")
        x = r.standard_normal((3, 6))

        def build():
            return linear(Tensor(x), w, b).sum()

        report = grad_check(build, [w, b], eps=1e-5, tol=1e-6)
        assert report.max_rel_error < 1e-6, report.summary()

    def test_dead_parameter_compares_exactly(self):
        used = Parameter(np.array([1.0]), name="used")
        dead = Parameter(np.array([3.0]), name="dead")

        def build():
            return (used * used).sum()

        report = grad_check(build, [used, dead], eps=1e-5, tol=1e-6)
        assert report.passed
        assert report.per_parameter["dead"] == 0.0

    def test_kink_margin_recorder(self):
        with record_kink_margins() as margins:
            leaky_relu(Tensor([0.5, -0.2]), 0.5)
            Tensor([1.0, 3.0, 2.5]).max()
        assert margins == [pytest.approx(0.2), pytest.approx(0.5)]


# ---------------------------------------------------------------------------
# per-op finite differences (spec invariant: every op, random inputs in [-2,2])


def _fd_case(name, build_params, build_loss):
    params = build_params()
    report = grad_check(lambda: build_loss(params), params, eps=1e-5, tol=1e-4)
    assert report.passed, f"{name}: {report.summary()}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_op_matches_finite_differences(seed):
    r = rng(seed)

    def u(*shape):
        return r.uniform(-2.0, 2.0, shape)

    x = u(4, 5)
    x_conv = u(9)

    cases = {
        "add": ([Parameter(u(4, 5), name="a")], lambda ps: (ps[0] + Tensor(x)).sum()),
        "sub": ([Parameter(u(4, 5), name="a")], lambda ps: (Tensor(x) - ps[0]).sum()),
        "mul": ([Parameter(u(4, 5), name="a")], lambda ps: (ps[0] * Tensor(x)).mean()),
        "scalar_ops": ([Parameter(u(3), name="a")], lambda ps: ((ps[0] * 2.0 + 1.5) * ps[0]).sum()),
        "linear": (
            [Parameter(u(5, 3), name="w"), Parameter(u(3), name="b")],
            lambda ps: linear(Tensor(x), ps[0], ps[1]).sum(),
        ),
        "conv": (
            [Parameter(u(5), name="k"), Parameter(u(1), name="kb")],
            lambda ps: conv1d_same(Tensor(x_conv), ps[0], ps[1]).sum(),
        ),
        "sigmoid": ([Parameter(u(6), name="a")], lambda ps: sigmoid(ps[0]).sum()),
        "log": ([Parameter(r.uniform(0.2, 2.0, 6), name="a")], lambda ps: log(ps[0]).sum()),
        "mean_max": ([Parameter(u(6), name="a")], lambda ps: ps[0].mean() + ps[0].max()),
        "reshape": ([Parameter(u(6), name="a")], lambda ps: ps[0].reshape(2, 3).sum()),
        "axis_reductions": (
            [Parameter(u(4, 5), name="a")],
            lambda ps: (ps[0].sum(axis=1) * Tensor(x[:, 0])).sum() + (ps[0].mean(axis=0) * ps[0].max(axis=1).mean()).sum(),
        ),
        "index": ([Parameter(u(4, 5), name="a")], lambda ps: (ps[0][1:3, 2] * ps[0][:, 0].sum()).sum()),
        "row_diff": ([Parameter(u(3, 5), name="a")], lambda ps: (adjacent_diff(ps[0]) * adjacent_diff(ps[0])).sum()),
        "row_conv": (
            [Parameter(u(3), name="k"), Parameter(u(1), name="kb"), Parameter(u(3, 7), name="x")],
            lambda ps: (conv1d_same(ps[2], ps[0], ps[1]) * Tensor(x_conv[:7])).sum(),
        ),
        "linear_no_bias": ([Parameter(u(5, 3), name="w")], lambda ps: sigmoid(linear(Tensor(x), ps[0])).sum()),
    }
    for name, (params, build_loss) in cases.items():
        for p in params:
            p.zero_grad()
        report = grad_check(lambda: build_loss(params), params, eps=1e-5, tol=1e-4)
        assert report.passed, f"{name}: {report.summary()}"


def test_leaky_relu_fd_away_from_kink():
    # FD straddles the kink at 0, so keep entries away from it
    vals = np.array([-1.8, -0.6, 0.4, 1.2, 1.9])
    p = Parameter(vals, name="a")
    report = grad_check(lambda: leaky_relu(p, 0.5).sum(), [p], eps=1e-5, tol=1e-6)
    assert report.passed, report.summary()


def test_forward_backward_deterministic():
    def run():
        r = rng(33)
        w = Parameter(r.standard_normal((4, 2)), name="w")
        b = Parameter(r.standard_normal(2), name="b")
        x = r.standard_normal((3, 4))
        h = leaky_relu(linear(Tensor(x), w, b), 0.5)
        h = h * ((rng(7).random(h.shape) >= 0.3) / 0.7)
        loss = sigmoid(h).mean()
        backward(loss)
        return value(loss).copy(), w.grad.copy(), b.grad.copy()

    la, wa, ba = run()
    lb, wb, bb = run()
    assert la.tobytes() == lb.tobytes()
    assert wa.tobytes() == wb.tobytes()
    assert ba.tobytes() == bb.tobytes()


def test_forward_values_stay_finite_on_finite_input():
    r = rng(8)
    x = Tensor(r.uniform(-700, 700, (5, 4)))
    out = sigmoid(x)
    assert np.isfinite(value(out)).all()
