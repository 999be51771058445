"""Reverse-mode autodiff over dense float64 numpy arrays.

Every op builds a node in an explicit computation graph: a ``Tensor`` wraps
the forward value plus a closure that scatters the output gradient to its
parents, and ``backward`` replays those closures in reverse topological
order. Inside a ``no_grad()`` block the same ops return bare numpy arrays
instead of graph nodes, so value-only passes (instance selection, finite
differences) run the identical forward math without graph overhead.

Shapes are deliberately minimal: dense arrays with scalar and trailing-axis
broadcasting, reductions over all entries or one axis, and basic indexing,
which is all the batched scoring model needs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "DimensionError",
    "ConfigurationError",
    "no_grad",
    "record_kink_margins",
    "value",
    "backward",
    "grad_check",
    "GradCheckReport",
    "add",
    "sub",
    "mul",
    "log",
    "index",
    "adjacent_diff",
    "reshape",
    "linear",
    "conv1d_same",
    "leaky_relu",
    "sigmoid",
]


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class ConfigurationError(ValueError):
    """Invalid hyperparameter or malformed configuration."""


_grad_enabled = True
_kink_margins: list | None = None


@contextmanager
def no_grad():
    """Run ops value-only: they return numpy arrays and record no graph."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def record_kink_margins():
    """Collect each op's distance to its nearest non-differentiable point.

    While active, leaky_relu appends min|input| and max-reduction appends the
    gap between its two largest entries. Finite-difference checks use the
    collected margins to reject inputs whose perturbations would straddle a
    kink or flip an argmax.
    """
    global _kink_margins
    prev = _kink_margins
    _kink_margins = []
    try:
        yield _kink_margins
    finally:
        _kink_margins = prev


class Tensor:
    """A float64 array plus its position in the computation graph."""

    __slots__ = ("data", "grad", "_parents", "_grad_fn")
    # Keep numpy from absorbing us in mixed ndarray <op> Tensor expressions;
    # with this set, numpy defers to our reflected operators.
    __array_ufunc__ = None

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, data={self.data!r})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return index(self, key)

    def sum(self, axis=None):
        return _reduce_sum(self, axis)

    def mean(self, axis=None):
        return _reduce_mean(self, axis)

    def max(self, axis=None):
        return _reduce_max(self, axis)

    def reshape(self, *shape):
        return reshape(self, *shape)


class Parameter(Tensor):
    """Trainable leaf tensor; its gradient persists until ``zero_grad``."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


def value(x) -> np.ndarray:
    """Unwrap to a float64 numpy array (accepts Tensor or array-like)."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


_val = value


def _accum(node: Tensor, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.zeros_like(node.data)
    node.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _node(out: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    t = Tensor(out)
    t._parents = tuple(p for p in parents if isinstance(p, Tensor))
    t._grad_fn = grad_fn
    return t


def _tracing(*xs) -> bool:
    return _grad_enabled and any(isinstance(x, Tensor) for x in xs)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    av, bv = _val(a), _val(b)
    out = av + bv
    if not _tracing(a, b):
        return out

    def grad_fn(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g, av.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g, bv.shape))

    return _node(out, (a, b), grad_fn)


def sub(a, b):
    av, bv = _val(a), _val(b)
    out = av - bv
    if not _tracing(a, b):
        return out

    def grad_fn(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g, av.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(-g, bv.shape))

    return _node(out, (a, b), grad_fn)


def mul(a, b):
    av, bv = _val(a), _val(b)
    out = av * bv
    if not _tracing(a, b):
        return out

    def grad_fn(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g * bv, av.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g * av, bv.shape))

    return _node(out, (a, b), grad_fn)


def log(x):
    """Natural log; callers are responsible for keeping inputs positive."""
    xv = _val(x)
    out = np.log(xv)
    if not _tracing(x):
        return out

    def grad_fn(g):
        _accum(x, g / xv)

    return _node(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# reductions and reshaping


def _expand(g, axis, shape):
    """Broadcast a reduced gradient back over the reduced axis."""
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def _reduce_sum(x, axis=None):
    """Sum over all entries, or over one axis."""
    xv = _val(x)
    out = np.asarray(xv.sum(axis=axis))
    if not _tracing(x):
        return out

    def grad_fn(g):
        _accum(x, _expand(g, axis, xv.shape))

    return _node(out, (x,), grad_fn)


def _reduce_mean(x, axis=None):
    """Mean over all entries, or over one axis."""
    xv = _val(x)
    n = xv.size if axis is None else xv.shape[axis]
    # the same bits as xv.mean(axis), without its bookkeeping
    out = np.asarray(xv.sum(axis=axis) / n)
    if not _tracing(x):
        return out

    def grad_fn(g):
        _accum(x, _expand(g / n, axis, xv.shape))

    return _node(out, (x,), grad_fn)


def _reduce_max(x, axis=None):
    """Maximum over all entries, or over one axis; the gradient routes to
    the first argmax of each reduced slice."""
    xv = _val(x)
    flat = xv.reshape(-1) if axis is None else np.moveaxis(xv, axis, -1)
    idx = np.expand_dims(np.argmax(flat, axis=-1), -1)
    out = np.take_along_axis(flat, idx, axis=-1)[..., 0]
    if _kink_margins is not None and flat.shape[-1] >= 2:
        top2 = np.partition(flat, -2, axis=-1)[..., -2:]
        _kink_margins.append(float((top2[..., 1] - top2[..., 0]).min()))
    if not _tracing(x):
        return out

    def grad_fn(g):
        contrib = np.zeros_like(flat)
        np.put_along_axis(contrib, idx, np.expand_dims(g, -1), axis=-1)
        _accum(x, contrib.reshape(xv.shape) if axis is None else np.moveaxis(contrib, -1, axis))

    return _node(out, (x,), grad_fn)


def index(x, key):
    """Basic indexing (integers and slices); the result is a view of x."""
    xv = _val(x)
    out = xv[key]
    if not _tracing(x):
        return out

    def grad_fn(g):
        contrib = np.zeros_like(xv)
        contrib[key] = g
        _accum(x, contrib)

    return _node(out, (x,), grad_fn)


def reshape(x, *shape):
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    xv = _val(x)
    out = xv.reshape(shape)
    if not _tracing(x):
        return out

    def grad_fn(g):
        _accum(x, g.reshape(xv.shape))

    return _node(out, (x,), grad_fn)


def adjacent_diff(x):
    """First difference along the last axis: out[..., i] = x[..., i+1] - x[..., i]."""
    xv = _val(x)
    if xv.ndim < 1 or xv.shape[-1] < 2:
        raise DimensionError(f"adjacent_diff needs a last axis of length >= 2, got shape {xv.shape}")
    out = xv[..., 1:] - xv[..., :-1]
    if not _tracing(x):
        return out

    def grad_fn(g):
        contrib = np.zeros_like(xv)
        contrib[..., 1:] += g
        contrib[..., :-1] -= g
        _accum(x, contrib)

    return _node(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# neural net ops


def linear(x, weight, bias=None):
    """Affine map on row vectors: out[n, o] = sum_i x[n, i] W[i, o] (+ b[o])."""
    xv, wv = _val(x), _val(weight)
    bv = None if bias is None else _val(bias)
    if (
        xv.ndim != 2
        or wv.ndim != 2
        or xv.shape[1] != wv.shape[0]
        or (bv is not None and (bv.ndim != 1 or wv.shape[1] != bv.shape[0]))
    ):
        shapes = f"x{xv.shape} W{wv.shape}" + ("" if bv is None else f" b{bv.shape}")
        raise DimensionError(f"linear: incompatible shapes {shapes}")
    out = xv @ wv
    if bv is not None:
        out += bv
    if not _tracing(x, weight, bias):
        return out

    def grad_fn(g):
        if isinstance(x, Tensor):
            _accum(x, g @ wv.T)
        if isinstance(weight, Tensor):
            _accum(weight, xv.T @ g)
        if isinstance(bias, Tensor):
            _accum(bias, g.sum(axis=0))

    return _node(out, (x, weight, bias), grad_fn)


def conv1d_same(x, weight, bias):
    """1-d cross-correlation with zero 'same' padding, along the last axis of
    a 1-d signal or of each row of a 2-d one.

    out[..., i] = b + sum_j w[j] * x[..., i + j - k//2], out-of-range x
    entries read as zero, so the output length equals the input length.
    """
    xv, wv, bv = _val(x), _val(weight), _val(bias)
    if xv.ndim not in (1, 2):
        raise DimensionError(f"conv1d_same expects a 1-d signal or rows of one, got shape {xv.shape}")
    if wv.ndim != 1:
        raise DimensionError(f"conv1d_same expects a 1-d kernel, got shape {wv.shape}")
    if bv.size != 1:
        raise DimensionError(f"conv1d_same expects a single bias value, got shape {bv.shape}")
    k = wv.shape[0]
    t = xv.shape[-1]
    if k % 2 == 0 or k < 3:
        raise ConfigurationError(f"conv1d_same kernel size must be odd and >= 3, got {k}")
    if k > t:
        raise ConfigurationError(f"conv1d_same kernel size {k} exceeds signal length {t}")
    half = k // 2
    width = t + 2 * half
    n = xv.size // t

    def flat_rows(v, at):
        # every row of v inside a zero row of the padded width, starting at
        # column `at`, end to end, plus 2*half zeros so that a 'valid'
        # correlation yields one output per padded column
        buf = np.zeros(n * width + 2 * half)
        buf[: n * width].reshape(n, width)[:, at : at + t] = v.reshape(n, t)
        return buf

    def rows_of(corr):
        # the first t outputs of each padded row are that row's; the rest
        # straddle two rows and are dropped
        return corr.reshape(n, width)[:, :t].reshape(xv.shape)

    xflat = flat_rows(xv, half)
    out = rows_of(np.correlate(xflat, wv, mode="valid")) + bv.reshape(())
    if not _tracing(x, weight, bias):
        return out

    def grad_fn(g):
        if isinstance(x, Tensor):
            _accum(x, rows_of(np.correlate(flat_rows(g, half), wv[::-1], mode="valid")))
        if isinstance(weight, Tensor):
            _accum(weight, np.correlate(xflat, flat_rows(g, 0)[: n * width], mode="valid"))
        if isinstance(bias, Tensor):
            _accum(bias, np.asarray(g.sum()).reshape(bv.shape))

    return _node(out, (x, weight, bias), grad_fn)


def leaky_relu(x, slope=0.5):
    """max(x, slope * x); the derivative at exactly zero takes the x >= 0 branch."""
    if not 0.0 <= slope < 1.0:
        raise ConfigurationError(f"leaky_relu slope must be in [0, 1), got {slope}")
    xv = _val(x)
    out = np.maximum(xv, slope * xv)
    if _kink_margins is not None and xv.size:
        _kink_margins.append(float(np.abs(xv).min()))
    if not _tracing(x):
        return out

    def grad_fn(g):
        _accum(x, g * np.where(xv >= 0.0, 1.0, slope))

    return _node(out, (x,), grad_fn)


def sigmoid(x):
    """Numerically stable logistic; finite for any finite input."""
    xv = _val(x)
    # 1 / (1 + exp(-x)) at and above zero, exp(x) / (1 + exp(x)) below it;
    # exp(-|x|) is the exponential either branch needs, and never overflows
    e = np.exp(-np.abs(xv))
    out = np.where(xv >= 0, 1.0, e) / (1.0 + e)
    if not _tracing(x):
        return out

    def grad_fn(g):
        _accum(x, g * out * (1.0 - out))

    return _node(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# backprop


def backward(loss: Tensor) -> None:
    """Push d(loss)/d(node) through the graph; ``loss`` must be scalar.

    Parameter gradients accumulate across calls until ``zero_grad``; an
    intermediate node's gradient is released once it has been passed on to
    the node's inputs, so a large graph never holds all of them at once.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward needs a Tensor (was the graph built under no_grad?)")
    if loss.size != 1:
        raise DimensionError(f"backward expects a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    for node in topo:
        if not isinstance(node, Parameter):
            node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._grad_fn is not None and node.grad is not None:
            node._grad_fn(node.grad)
            node.grad = None


@dataclass
class GradCheckReport:
    """Outcome of an analytic-vs-finite-difference gradient comparison."""

    max_rel_error: float
    worst_parameter: str
    per_parameter: dict[str, float] = field(repr=False)
    tol: float = 1e-4

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict}: max rel error {self.max_rel_error:.3e} "
            f"(worst parameter {self.worst_parameter!r}, tol {self.tol:.1e})"
        )


def grad_check(build, params, eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``build`` must rebuild the same scalar loss from the current parameter
    values on every call (fix any randomness before calling; dropout must be
    off). Every entry of every parameter is perturbed by +/- eps. Entries
    where both sides are ~0 compare by absolute difference, so unused
    parameters pass exactly.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = build()
    if not isinstance(loss, Tensor):
        raise TypeError("grad_check: build() must return a graph Tensor")
    if not np.isfinite(loss.data).all():
        raise ValueError("grad_check: loss is not finite")
    backward(loss)

    analytic = {}
    for p in params:
        if not np.isfinite(p.grad).all():
            raise ValueError(f"grad_check: non-finite gradient for parameter {p.name!r}")
        analytic[p.name] = p.grad.copy()

    per_parameter: dict[str, float] = {}
    worst_name = ""
    worst_err = 0.0
    with no_grad():
        for p in params:
            flat = p.data.reshape(-1)
            ana = analytic[p.name].reshape(-1)
            err_here = 0.0
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = float(build())
                flat[i] = orig - eps
                f_minus = float(build())
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * eps)
                if not math.isfinite(numeric):
                    raise ValueError(
                        f"grad_check: non-finite difference quotient for parameter {p.name!r}"
                    )
                denom = max(abs(ana[i]), abs(numeric))
                err = abs(ana[i] - numeric) if denom < 1e-12 else abs(ana[i] - numeric) / denom
                if err > err_here:
                    err_here = err
            per_parameter[p.name] = err_here
            if err_here >= worst_err:
                worst_err = err_here
                worst_name = p.name
    for p in params:
        p.zero_grad()
    return GradCheckReport(
        max_rel_error=worst_err,
        worst_parameter=worst_name,
        per_parameter=per_parameter,
        tol=tol,
    )
