"""The clip-scoring network.

Two stages run per bag of T clip feature rows. The temporal attention stage
pools each clip's features to one scalar, slides 1-d convolutions of every
odd width from ``k_max`` down to 3 along the clip axis, passes each response
through a leaky ReLU, and sums them into per-clip attention logits scaled by
``lambda1``. The result is a per-clip gate: ``residual`` mode rescales clips
by (1 + attention), so zero-valued kernels leave features untouched, while
``pure`` mode rescales by the attention alone. The scoring head then maps
every gated clip row through a narrow-then-wide MLP ending in a sigmoid, one
anomaly score per clip. The hourglass widening (64 -> 128) is what keeps the
head small next to a conventional wide-then-narrow head.

Because the gate is one scalar per clip, the head applies it after its first
matrix product: (a * X) W0 = a * (X W0). The rescaled (T, D) features are
never built, and one forward serves one bag, a stack of bags or a list of
bags alike.

The parameters are plain arrays, by name. Each stage is one op with a
hand-written backward. In a training pass ``mta_forward`` returns the gate
as a graph node, and ``hfc_forward`` the scores as a node over the gate
node; each node's backward returns its own parameters' gradients by name.
The head's backward gives the first layer's weight gradient as X^T (a * g)
and hands the gate node its gradient. A training pass draws the head's
dropout masks in the stack's row order, one draw of the generator's raw
words per hidden layer. An inference pass computes the same values on
plain arrays and builds no node: one layer sequence for a bag, a stack and
a list, with one first product per call over a bag or a stack, in-place
leaky ReLUs, and none of training's buffers or kink-margin notes.
Evaluation chunks and score requests (a chunk of one bag) share it. In
either pass the attention kernels correlate over one zero-padded copy of
the clip-mean signal.

The head's backward works in place and over only the rows that carry
gradient: every layer skips the rows whose score gradient is zero, which
the objective leaves at every normal clip it does not read. It overwrites
each live pre-activation with the leaky ReLU's derivative there, and each
layer's gradient over an activation it no longer needs. Given a
``Workspace`` that the caller keeps from batch to batch, every array of
the head whose size grows with the batch (activations, dropout masks,
weight gradients) goes into one of its buffers, so a steady-state training
step allocates none of them, only the gathered copies of the few live rows
after the leading run; without one, the same code runs on fresh arrays.

The parameters' dtype is the head's compute dtype: float32 by default, as
the features are stored, and float64 for the gradient check, which takes
finite differences. Everything that grows with D runs in it. Per-clip
vectors (clip means, the gate, the scores) stay float64: the head's last
logit goes through the sigmoid in float64, and the gate's gradient comes
back in float64.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import ConfigurationError, DimensionError, Tensor, note_kink_margin
from .data import mean_per_clip

MTA_MODES = ("residual", "pure")
HEAD_SHAPES = ("hourglass", "conventional")
# the head's parameters, in layer order
_HEAD_NAMES = tuple(f"head.{i}.{kind}" for i in range(3) for kind in ("weight", "bias"))


@dataclass(frozen=True)
class MtaConfig:
    """Multi-width temporal attention settings."""

    k_max: int = 5          # largest conv width; also generates k_max-2, ... down to 3
    lambda1: float = 0.1    # attention scale
    slope: float = 0.5      # leaky ReLU slope
    mode: str = "residual"  # "residual" rescales by 1 + attention, "pure" by attention

    def __post_init__(self):
        if self.k_max < 3 or self.k_max % 2 == 0:
            raise ConfigurationError(f"k_max must be odd and >= 3, got {self.k_max}")
        if self.lambda1 <= 0:
            raise ConfigurationError(f"lambda1 must be positive, got {self.lambda1}")
        if not 0.0 <= self.slope < 1.0:
            raise ConfigurationError(f"slope must be in [0, 1), got {self.slope}")
        if self.mode not in MTA_MODES:
            raise ConfigurationError(f"mode must be one of {MTA_MODES}, got {self.mode!r}")

    @property
    def kernel_sizes(self) -> tuple[int, ...]:
        return tuple(range(self.k_max, 2, -2))


@dataclass(frozen=True)
class HfcConfig:
    """Per-clip scoring head settings; dims run input -> hidden -> hidden -> 1."""

    dims: tuple[int, ...] = (2048, 64, 128, 1)
    dropout: float = 0.5
    head_shape: str = "hourglass"
    slope: float = 0.5

    def __post_init__(self):
        dims = tuple(int(v) for v in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) != 4:
            raise ConfigurationError(f"head dims must have 4 entries, got {dims}")
        if any(v < 1 for v in dims):
            raise ConfigurationError(f"head dims must be positive, got {dims}")
        if dims[-1] != 1:
            raise ConfigurationError(f"head must end in one score unit, got {dims}")
        if self.head_shape not in HEAD_SHAPES:
            raise ConfigurationError(f"head_shape must be one of {HEAD_SHAPES}, got {self.head_shape!r}")
        if self.head_shape == "hourglass" and not dims[1] < dims[2]:
            raise ConfigurationError(f"hourglass head needs ascending middle widths, got {dims}")
        if self.head_shape == "conventional" and not dims[1] > dims[2]:
            raise ConfigurationError(f"conventional head needs descending middle widths, got {dims}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.slope < 1.0:
            raise ConfigurationError(f"slope must be in [0, 1), got {self.slope}")

    # the defaults below are the field defaults above, read in the class body
    @classmethod
    def for_feature_dim(cls, feature_dim, head_shape=head_shape, narrow=dims[1], wide=dims[2],
                        dropout=dropout, slope=slope):
        if head_shape == "hourglass":
            dims = (feature_dim, narrow, wide, 1)
        else:
            dims = (feature_dim, wide, narrow, 1)
        return cls(dims=dims, dropout=dropout, head_shape=head_shape, slope=slope)


class ModelParameters(dict[str, np.ndarray]):
    """Named trainable arrays, in registration order. Training updates
    them in place."""

    def register(self, name: str, values, dtype=np.float32) -> np.ndarray:
        if name in self:
            raise ConfigurationError(f"duplicate parameter name {name!r}")
        self[name] = np.asarray(values, dtype=dtype)
        return self[name]

    def count_entries(self) -> int:
        return sum(p.size for p in self.values())

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        load_checked(self, arrays, "parameter")


def load_checked(into: dict[str, np.ndarray], arrays: dict[str, np.ndarray], what: str) -> None:
    """Copy ``arrays`` into the same-named arrays of ``into``, in their dtypes,
    once the names match and each array has its target's shape and finite
    values its dtype holds; else a ``CheckpointError`` names the first
    failing ``what`` (``"parameter"``, or a state file's ``"<path>: moment"``)."""
    missing = set(into) - set(arrays)
    extra = set(arrays) - set(into)
    if missing or extra:
        raise CheckpointError(f"{what} names mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for name, p in into.items():
        arr = np.asarray(arrays[name])
        if arr.shape != p.shape:
            raise CheckpointError(f"{what} {name!r} shape {arr.shape} does not match expected {p.shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{what} {name!r} holds a non-finite value")
        try:
            with np.errstate(over="raise"):
                p[...] = arr  # rounds float64 values once into float32 arrays
        except FloatingPointError:
            raise CheckpointError(f"{what} {name!r} holds values outside the {p.dtype} range") from None


def _zero_parameters(mta_cfg: MtaConfig | None, hfc_cfg: HfcConfig, dtype=np.float32) -> ModelParameters:
    """Registry of zero ``dtype`` arrays under the model's names and shapes,
    in registration order."""
    params = ModelParameters()
    if mta_cfg is not None:
        for k in mta_cfg.kernel_sizes:
            params.register(f"mta.conv{k}.weight", np.zeros(k, dtype), dtype)
            params.register(f"mta.conv{k}.bias", np.zeros(1, dtype), dtype)
    dims = hfc_cfg.dims
    for i, (din, dout) in enumerate(zip(dims, dims[1:])):
        params.register(f"head.{i}.weight", np.zeros((din, dout), dtype), dtype)
        params.register(f"head.{i}.bias", np.zeros(dout, dtype), dtype)
    return params


def init_parameters(mta_cfg: MtaConfig | None, hfc_cfg: HfcConfig, seed: int = 0,
                    dtype=np.float32) -> ModelParameters:
    """Fresh registry of ``dtype`` arrays: zero attention kernels (identity
    start in residual mode), uniform +/- 1/sqrt(fan_in) for the head's
    weights and biases, drawn in float64 and cast once, so every dtype
    starts from the same draws."""
    rng = np.random.default_rng(seed)
    params = _zero_parameters(mta_cfg, hfc_cfg, dtype)
    for i, din in enumerate(hfc_cfg.dims[:-1]):
        bound = 1.0 / np.sqrt(din)
        for kind in ("weight", "bias"):
            p = params[f"head.{i}.{kind}"]
            p[...] = rng.uniform(-bound, bound, size=p.shape)
    return params


def count_parameters(mta_cfg: MtaConfig | None, hfc_cfg: HfcConfig) -> int:
    """Closed-form trainable parameter count for the configured model."""
    total = 0
    if mta_cfg is not None:
        total += sum(k + 1 for k in mta_cfg.kernel_sizes)
    dims = hfc_cfg.dims
    total += sum(din * dout + dout for din, dout in zip(dims, dims[1:]))
    return total


# ---------------------------------------------------------------------------
# layers: plain array -> array forwards


def _padded_rows(v, t: int, half: int, at: int) -> np.ndarray:
    """Every length-t row of v inside a zero row of width t + 2*half, starting
    at column ``at``, end to end, plus 2*half zeros, so that a 'valid'
    correlation yields one output per padded column."""
    n = v.size // t
    width = t + 2 * half
    buf = np.zeros(n * width + 2 * half)
    buf[: n * width].reshape(n, width)[:, at : at + t] = v.reshape(n, t)
    return buf


def _conv1d_weight_grad(x, g, k: int) -> np.ndarray:
    """Gradient with respect to w of sum(g * c), where c is the correlation
    of each length-t row of x with the width-k kernel w under zero 'same'
    padding."""
    t = x.shape[-1]
    half = k // 2
    n_cols = (x.size // t) * (t + 2 * half)
    return np.correlate(_padded_rows(x, t, half, half), _padded_rows(g, t, half, 0)[:n_cols], mode="valid")


def leaky_relu(x, slope=0.5, out=None):
    """max(x, slope * x), written into ``out`` when given; its derivative at
    exactly zero takes the x >= 0 branch."""
    if not 0.0 <= slope < 1.0:
        raise ConfigurationError(f"leaky_relu slope must be in [0, 1), got {slope}")
    if x.size:
        note_kink_margin(lambda: np.abs(x).min())
    out = np.multiply(x, slope, out=out)
    return np.maximum(x, out, out=out)


def _to_leaky_relu_slope(z, slope):
    """The leaky ReLU's derivative at ``z``, written over ``z`` itself as
    (z >= 0) * (1 - slope) + slope: exactly 1 or ``slope`` in z's dtype
    (NaN takes ``slope``), since fl(fl(1 - s) + fl(s)) = 1 for s in
    [0, 1), in float64 and in float32."""
    np.greater_equal(z, 0.0, out=z)
    z *= 1.0 - slope
    z += slope
    return z


def sigmoid(x):
    """Numerically stable logistic; finite for any finite input."""
    # 1 / (1 + exp(-x)) at and above zero, exp(x) / (1 + exp(x)) below it;
    # exp(-|x|) is the exponential either branch needs, and never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# the gate and head ops


def mta_forward(means, cfg: MtaConfig, params: ModelParameters, training: bool = False):
    """Attention gate from the clip-mean signal of one bag (T,) or of a stack
    of bags (..., T); the gate has the signal's shape.

    With ``training`` the gate is a graph node at the bottom of the chain,
    whose backward returns the attention kernels' gradients by name, each
    in its kernel's dtype; otherwise it is a plain array. The backward
    overwrites the saved convolution responses with the leaky ReLU's
    derivative there, so it runs once.

    The signal is zero-padded once, by ``k_max // 2``, and each kernel
    correlates over its slice of that buffer: the same values in the same
    windows as a correlation with each kernel's own 'same' padding. A
    training pass takes the leaky ReLU through ``leaky_relu``, which notes
    its kink margin for the gradient check; an inference pass takes it as
    bare ufuncs, the same operations.
    """
    means = np.asarray(means, dtype=np.float64)
    t = means.shape[-1]
    if t < cfg.k_max:
        raise ConfigurationError(f"bag has {t} clips but the largest kernel needs {cfg.k_max}")
    kernels = [(params[f"mta.conv{k}.weight"], params[f"mta.conv{k}.bias"]) for k in cfg.kernel_sizes]
    half = cfg.k_max // 2
    width = t + 2 * half
    padded = _padded_rows(means, t, half, half)
    n_cols = padded.size - 2 * half
    responses, logits = [], None
    for w, b in kernels:
        # the first t outputs of each padded row are that row's
        c = np.correlate(padded[half - w.size // 2 :], w, mode="valid")[:n_cols]
        c = c.reshape(-1, width)[:, :t].reshape(means.shape)
        c += b
        if training:
            responses.append(c)
            a = leaky_relu(c, cfg.slope)
        else:
            a = np.maximum(c, c * cfg.slope)
        logits = a if logits is None else logits + a
    gate = logits * cfg.lambda1
    if cfg.mode == "residual":
        gate += 1.0
    if not training:
        return gate

    def grad_fn(g):
        g = g * cfg.lambda1
        grads = {}
        for k, c, (w, b) in zip(cfg.kernel_sizes, responses, kernels):
            gc = g * _to_leaky_relu_slope(c, cfg.slope)
            grads[f"mta.conv{k}.weight"] = _conv1d_weight_grad(means, gc, k).astype(w.dtype, copy=False)
            grads[f"mta.conv{k}.bias"] = np.asarray(gc.sum(), dtype=b.dtype).reshape(1)
        return None, grads

    return Tensor(gate, (), grad_fn)


class Workspace:
    """Named buffers, kept from one training batch to the next.

    ``take(name, shape, dtype)`` returns the buffer last made under
    ``name``, or a new, uninitialised one when there is none of that shape
    and dtype; the caller overwrites it whole. A training step writes its
    batch stack, the head's activations, dropout masks and weight gradients
    (for the leading run of live rows and for the gathered rest) here, so
    in steady state the only feature-wide array it allocates is the gather
    of the few live normal rows (at most two per bag at K = 1); the rest
    are their narrower activations and masks, bias gradients and vectors
    of one value per clip.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(shape, dtype)
        return buf


def _no_buffer(name: str, shape: tuple[int, ...], dtype) -> None:
    """``Workspace.take`` for a caller without a workspace: every ``out=``
    it feeds is None, so each op allocates its result."""
    return None


def dropout_masks(rng, rows: int, widths, rate: float,
                  workspace: Workspace | None = None, dtype=np.float32) -> list[np.ndarray]:
    """Inverted-dropout masks for the hidden layers of ``rows`` clip rows,
    one (rows, width) ``dtype`` mask per width, in buffers of ``workspace``
    when one is given. The masks' rows follow the stack's rows.

    Each unit's keep decision reads 16 bits of the generator's raw 64-bit
    words, read as little-endian uint16 on any host, so one word decides
    four units: a unit is kept when its slice is >= thr = min(round(rate *
    2^16), 2^16 - 1), and a kept unit is scaled by 2^16 / (2^16 - thr), so
    that E[mask] = 1 exactly (at rate 0.5, thr = 2^15 and the scale is 2).
    The layers draw in order, each in one ``random_raw`` call of ceil(rows
    * width / 4) whole words, whose first rows * width slices are compared
    straight into its mask in row-major order; a last word's spare slices
    are unused. So the generator advances by exactly the words drawn.
    """
    if rng is None:
        raise ConfigurationError("dropout in training mode needs a random generator")
    thr = min(round(rate * 2**16), 2**16 - 1)
    masks = []
    for i, w in enumerate(widths):
        m = np.empty((rows, w), dtype) if workspace is None else workspace.take(f"mask{i}", (rows, w), dtype)
        bits = rng.bit_generator.random_raw(-(-rows * w // 4)).astype("<u8", copy=False).view("<u2")
        # 1 where the unit is kept
        np.greater_equal(bits[: rows * w].reshape(rows, w), thr, out=m)
        m *= 2**16 / (2**16 - thr)
        masks.append(m)
    return masks


def _feature_bags(x, width: int):
    """The bag axes and the features of one bag (T, ``width``) or a stack
    of bags (..., T, width), as one array, or of a list of bags of one
    shape (T, width), as a list of arrays: as they lie, nothing is copied
    or cast."""
    if isinstance(x, (list, tuple)):
        bags = [np.asarray(b) for b in x]
        shapes = sorted({b.shape for b in bags})
        if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][1] != width:
            raise DimensionError(f"head expects a list of bags of one shape (T, {width}), got shapes {shapes}")
        return (len(bags), shapes[0][0]), bags
    x = np.asarray(x)
    if x.ndim < 2 or x.shape[-1] != width:
        raise DimensionError(f"head expects (T, {width}) or (..., T, {width}) features, got shape {x.shape}")
    return x.shape[:-1], x


def _head_tail(h1, slope: float, w1, b1, w2, b2, z2, h2, mask=None):
    """Head layers after the first, from its activation ``h1`` (masked or
    not) to the sigmoid. Returns the (rows, 1) scores, the second layer's
    pre-activation and its activation times the dropout ``mask`` when
    given; those two go into ``z2`` and ``h2`` unless they are None. The
    last logit is widened to float64 before the sigmoid, so the scores keep
    float64 resolution near 0 and 1 whatever the compute dtype."""
    z2 = h1 @ w1 if z2 is None else np.matmul(h1, w1, out=z2)
    z2 += b1
    h2 = leaky_relu(z2, slope, out=h2)
    if mask is not None:
        h2 *= mask
    return sigmoid((h2 @ w2 + b2).astype(np.float64, copy=False)), z2, h2


def hfc_forward(x, cfg: HfcConfig, params: ModelParameters, gate=None,
                training: bool = False, rng=None, workspace: Workspace | None = None):
    """Score every clip of one bag (T, D), of a stack of bags (..., T, D) or
    of a list of bags of one shape (T, D), which scores like their stack.

    Layer pattern: linear -> leaky ReLU -> dropout for both hidden layers,
    then linear -> sigmoid; dropout only fires when ``training``. A ``gate``
    shaped like the bag axes (an array, or in training the gate node)
    rescales each clip, applied after the first matrix product: gate *
    (x W0) + b0. The features are data: no gradient flows back to them.

    The features and the gate are cast to the parameters' dtype, and every
    layer runs in it (float32 features into float32 parameters are not
    copied); the sigmoid runs in float64, so the scores are float64. The
    backward casts the scores' gradient to the parameters' dtype and hands
    the gate node a float64 gradient.

    Returns ``(scores, clean)``, both shaped like the bag axes: the scores
    (with ``training``, a graph node over the gate node, whose backward
    returns the six head gradients by name and the gate node's gradient)
    and, as an array, the same scores with dropout off. A training
    pass computes both from one first layer, so the dropout-free pass costs
    no second product with W0.

    An inference pass is one layer sequence on plain arrays, for a bag, a
    stack and a list alike. Its first product is one ``np.matmul`` over a
    bag or a stack, which NumPy runs as one product per bag; a list is
    never stacked, and each of its bags is multiplied where it lies (a
    float64 bag cast to the parameters' dtype alone) into its rows of one
    (n, T, width) activation. The later layers keep the bag axes. So each
    bag goes through every layer in a matrix product of the shape it has
    when scored alone, and a bag's scores in a stack or a list are bit for
    bit its scores alone. (One flat product over a stack can take another
    BLAS path for bags of a few clips and round differently.) The leaky
    ReLU runs in place as bare ufuncs, without ``leaky_relu``'s slope check
    and kink margin, which only training needs, and no workspace is used.
    A training pass multiplies every clip of the stack in one flat product,
    which is the faster call at D=2048.

    In a training pass every (rows x width) array goes into a buffer of
    ``workspace`` when one is given, and into a fresh array otherwise. The
    pass runs the dropout-free tail first, then masks the first activation
    in place and runs the tail again through the same buffers. Its dropout
    masks (``dropout_masks``) read one 16-bit slice of the generator's raw
    words per unit, one draw per layer over every row of the stack in the
    stack's row order, so a bag's masks depend on where the stack holds
    it. Its backward overwrites each pre-activation with the leaky ReLU's
    derivative there, and each layer's gradient over an activation it has
    read for the last time. So the backward runs at most once, and before
    the next forward into the same workspace.

    The backward runs every layer over only the rows whose score gradient
    is nonzero: a zero there is zero in every layer's gradient of that row,
    and the row's gate gradient is exactly 0. It runs once over the leading
    run of such rows, read and overwritten where they lie, and once over
    the ones after it, gathered, and sums the two parts' weight and bias
    gradients; with every row live, it is one pass over all rows. The
    objective reads a negative bag only at its selected and peak clips, so
    in a class-major stack the run holds every anomalous row and about half
    the rows are skipped.
    """
    w0, b0, w1, b1, w2, b2 = [params[name] for name in _HEAD_NAMES]
    dtype = w0.dtype
    bag_axes, bags = _feature_bags(x, cfg.dims[0])
    if not training:
        if isinstance(bags, list):
            # each bag's own product, read where the bag lies, into its rows
            z = np.empty(bag_axes + (cfg.dims[1],), dtype)
            for bag, out in zip(bags, z):
                np.matmul(bag.astype(dtype, copy=False), w0, out=out)
        else:
            z = np.matmul(bags.astype(dtype, copy=False), w0)
        if gate is not None:
            z *= np.asarray(gate, dtype).reshape(bag_axes + (1,))
        z += b0
        np.maximum(z, z * cfg.slope, out=z)
        z = np.matmul(z, w1)
        z += b1
        np.maximum(z, z * cfg.slope, out=z)
        scores = sigmoid((z @ w2 + b2).astype(np.float64, copy=False)).reshape(bag_axes)
        return scores, scores
    take = _no_buffer if workspace is None else workspace.take
    # one flat product over every clip of the stack
    x = np.asarray(bags, dtype=dtype).reshape(-1, cfg.dims[0])
    rows = x.shape[:-1]
    xw = np.matmul(x, w0, out=take("xw", rows + (cfg.dims[1],), dtype))
    gate_node = gate if isinstance(gate, Tensor) else None
    if gate_node is not None:
        gate = gate_node.data
    gate_col = None if gate is None else np.asarray(gate, dtype=dtype).reshape(rows + (1,))
    # x W0 outlives the first layer only for the gate node's gradient
    if gate_node is None:
        z1 = xw
        if gate_col is not None:
            z1 *= gate_col
    else:
        z1 = np.multiply(xw, gate_col, out=take("z1", xw.shape, dtype))
    z1 += b0
    h1 = leaky_relu(z1, cfg.slope, out=take("h1", xw.shape, dtype))
    wide = rows + (cfg.dims[2],)
    clean, z2, h2 = _head_tail(h1, cfg.slope, w1, b1, w2, b2, take("z2", wide, dtype), take("h2", wide, dtype))
    out, masks = clean, None
    if cfg.dropout:
        masks = dropout_masks(rng, x.shape[0], cfg.dims[1:-1], cfg.dropout, workspace, dtype)
        h1 *= masks[0]
        out = _head_tail(h1, cfg.slope, w1, b1, w2, b2, z2, h2, masks[1])[0]
    spent = False

    def rows_backward(g, at, part, gate_grad):
        """The six head gradients summed over the rows ``at`` of the stack,
        from their score gradient ``g``, into the weight buffers named with
        ``part``; the gate's gradient goes into those rows of ``gate_grad``.
        A slice's rows are read and overwritten where they lie, an index
        array's are gathered."""
        s, h2_at, h1_at = out[at], h2[at], h1[at]
        g = (g[at] * s * (1.0 - s)).astype(dtype, copy=False)
        gw2 = np.matmul(h2_at.T, g, out=take(f"gw2{part}", w2.shape, dtype))
        gb2 = g.sum(axis=0)
        g = np.matmul(g, w2.T, out=h2_at)
        if masks is not None:
            g *= masks[1][at]
        g *= _to_leaky_relu_slope(z2[at], cfg.slope)
        gw1 = np.matmul(h1_at.T, g, out=take(f"gw1{part}", w1.shape, dtype))
        gb1 = g.sum(axis=0)
        g = np.matmul(g, w1.T, out=h1_at)
        if masks is not None:
            g *= masks[0][at]
        g *= _to_leaky_relu_slope(z1[at], cfg.slope)
        gb0 = g.sum(axis=0)
        if gate_grad is not None:
            xw_at = xw[at]
            gate_grad[at] = np.multiply(xw_at, g, out=xw_at).sum(axis=1)
        if gate_col is not None:
            g *= gate_col[at]
        gw0 = np.matmul(x[at].T, g, out=take(f"gw0{part}", w0.shape, dtype))
        return gw0, gb0, gw1, gb1, gw2, gb2

    def grad_fn(g):
        nonlocal spent
        if spent:
            raise RuntimeError("the head's backward has overwritten its saved activations; run the forward again")
        spent = True
        g = g.reshape(-1, 1)
        live = g[:, 0] != 0
        lead = live.size if live.all() else int(live.argmin())
        rest = np.flatnonzero(live[lead:]) + lead
        # a dead row's gate gradient is exactly 0; ``backward`` widens it
        # to the gate node's float64
        gate_grad = None if gate_node is None else np.zeros(live.size, dtype)
        grads = rows_backward(g, slice(0, lead), "", gate_grad)
        if rest.size:
            for total, more in zip(grads, rows_backward(g, rest, ".rest", gate_grad)):
                total += more
        if gate_grad is not None:
            gate_grad = gate_grad.reshape(gate_node.data.shape)
        return gate_grad, dict(zip(_HEAD_NAMES, grads))

    parents = () if gate_node is None else (gate_node,)
    return Tensor(out.reshape(bag_axes), parents, grad_fn), clean.reshape(bag_axes)


@dataclass(frozen=True)
class BagScores:
    """One forward over a bag (T,) or a stack of bags (..., T); unpacks as
    ``scores, gate``.

    ``scores`` is the head's graph node in a training pass and an array
    otherwise; ``gate`` holds the per-clip attention gate (all ones without
    attention) and ``clean`` the scores with dropout off, which instance
    selection reads.
    """

    scores: object
    gate: np.ndarray
    clean: np.ndarray

    def __iter__(self):
        return iter((self.scores, self.gate))


class AnomalyScorer:
    """Configs plus parameters, bundled behind a per-bag scoring call."""

    def __init__(self, hfc_cfg: HfcConfig, mta_cfg: MtaConfig | None = None,
                 seed: int = 0, params: ModelParameters | None = None, dtype=np.float32):
        self.hfc_cfg = hfc_cfg
        self.mta_cfg = mta_cfg
        self.params = params if params is not None else init_parameters(mta_cfg, hfc_cfg, seed, dtype)
        expected = count_parameters(mta_cfg, hfc_cfg)
        actual = self.params.count_entries()
        if expected != actual:
            raise ConfigurationError(
                f"parameter registry holds {actual} entries but the configuration implies {expected}"
            )

    @property
    def use_mta(self) -> bool:
        return self.mta_cfg is not None

    @property
    def feature_dim(self) -> int:
        return self.hfc_cfg.dims[0]

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, which the head computes in."""
        return self.params["head.0.weight"].dtype

    def check_bag(self, bag, split: str) -> None:
        """Reject, naming the ``split`` video, a bag of a shape this model
        cannot score: another feature width, or fewer clips than a kernel."""
        t, d = bag.features.shape
        if d != self.feature_dim:
            raise DimensionError(f"{split} video {bag.video_id!r} has {d}-dim features, "
                                 f"the model expects {self.feature_dim}")
        if self.use_mta and t < self.mta_cfg.k_max:
            raise ConfigurationError(f"{split} video {bag.video_id!r} has {t} clips "
                                     f"but the largest kernel needs {self.mta_cfg.k_max}")

    def score_bag(self, features, training: bool = False, rng=None, means=None,
                  workspace: Workspace | None = None) -> BagScores:
        """Score one bag (T, D), a stack of bags (..., T, D) or a list of
        bags of one shape (T, D); with ``training``, the scores are a graph
        node. ``hfc_forward`` says how the features are read, never copied
        into a stack in inference, and how a ``workspace`` is used.

        ``means`` are the clips' feature means, shaped like the bag axes
        ((len(list), T) for a list); a caller that has them cached passes
        them, otherwise they are computed here when the attention block
        needs them, by ``data.mean_per_clip`` as ``ClipFeatureBag.clip_means``
        computes them. The features' shapes are checked before that, so a
        list of bags of two shapes raises ``DimensionError`` either way.
        """
        gate = None
        if self.mta_cfg is not None:
            if means is None:
                _feature_bags(features, self.feature_dim)
                means = mean_per_clip(features)
            gate = mta_forward(means, self.mta_cfg, self.params, training)
        scores, clean = hfc_forward(features, self.hfc_cfg, self.params, gate, training, rng, workspace)
        if gate is None:
            gate = np.ones(clean.shape)
        elif training:
            gate = gate.data
        return BagScores(scores, gate, clean)

    def config_dict(self) -> dict:
        return {
            "mta": asdict(self.mta_cfg) if self.mta_cfg is not None else None,
            "hfc": asdict(self.hfc_cfg),
        }


# ---------------------------------------------------------------------------
# checkpoint container
#
# layout (little endian): magic | u16 version | u32 json length | config JSON
# | u32 tensor count | per tensor: u16 name length, name utf-8, u8 ndim,
# ndim x u32 dims, payload f64. float32 parameters are stored exactly in the
# f64 payload, and a model loaded from any checkpoint computes in float32:
# a checkpoint written by a float64 model is rounded to float32 once, at
# load.

CHECKPOINT_MAGIC = b"LWCK"
STATE_MAGIC = b"LWTS"
CONTAINER_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed or does not match the expected config."""


@contextmanager
def replacing(path):
    """Open a binary file that replaces ``path`` once the block completes.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``; if the block raises, the temporary file is deleted.
    So an interrupted write leaves any earlier file as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_container(path, magic: bytes, config: dict, arrays: dict[str, np.ndarray]) -> Path:
    """Write a container to ``path`` atomically (see ``replacing``)."""
    path = Path(path)
    cfg_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    with replacing(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<HI", CONTAINER_VERSION, len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            # a contiguous little-endian float64 array is written from where
            # it lies; anything else is widened or reordered in one copy
            arr = np.asarray(arr, dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.data)
    return path


def read_container(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container; any malformed content raises ``CheckpointError``
    naming the file. The tensors are read-only float64 views of the file's
    bytes, copied nowhere: every caller copies them into its own arrays."""
    path = Path(path)
    blob = path.read_bytes()
    pos = 0

    def skip(n: int, what: str) -> int:
        """Offset of the next ``n`` bytes, which are then passed over."""
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"{path}: truncated while reading {what}")
        pos += n
        return pos - n

    def take(n: int, what: str) -> bytes:
        start = skip(n, what)
        return blob[start : start + n]

    def text(n: int, what: str) -> str:
        chunk = take(n, what)
        try:
            return chunk.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: {what} is not UTF-8") from None

    if take(len(magic), "magic") != magic:
        raise CheckpointError(f"{path}: bad magic, expected {magic!r}")
    version, cfg_len = struct.unpack("<HI", take(6, "header"))
    if version != CONTAINER_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    try:
        config = json.loads(text(cfg_len, "config block"))
    except json.JSONDecodeError as err:
        raise CheckpointError(f"{path}: config block is not valid JSON: {err}") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config block is not a JSON object")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = text(name_len, "tensor name")
        (ndim,) = struct.unpack("<B", take(1, "ndim"))
        shape = tuple(struct.unpack("<I", take(4, "dim"))[0] for _ in range(ndim))
        size = math.prod(shape)
        offset = skip(8 * size, f"tensor {name!r}")
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        try:
            arrays[name] = np.frombuffer(blob, "<f8", size, offset).reshape(shape)
        except ValueError:
            raise CheckpointError(f"{path}: tensor {name!r} has an unrepresentable shape {shape}") from None
    if pos != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return config, arrays


def _normalize_config(config: dict) -> dict:
    # round-trip through JSON so tuples compare equal to lists
    return json.loads(json.dumps(config, sort_keys=True))


def save_checkpoint(path, model: AnomalyScorer) -> Path:
    return write_container(path, CHECKPOINT_MAGIC, model.config_dict(), model.params)


def load_checkpoint(path, expected_config: dict | None = None) -> AnomalyScorer:
    """Rebuild a model from a checkpoint; rejects config mismatches. Any
    malformed content raises ``CheckpointError`` naming the file."""
    config, arrays = read_container(path, CHECKPOINT_MAGIC)
    if expected_config is not None and _normalize_config(expected_config) != _normalize_config(config):
        raise CheckpointError(
            f"{path}: checkpoint config {config} does not match expected {_normalize_config(expected_config)}"
        )
    try:
        mta_cfg = MtaConfig(**config["mta"]) if config.get("mta") else None
        hfc_raw = dict(config["hfc"])
        hfc_raw["dims"] = tuple(hfc_raw["dims"])
        hfc_cfg = HfcConfig(**hfc_raw)
        params = _zero_parameters(mta_cfg, hfc_cfg)
        params.load_arrays(arrays)
        return AnomalyScorer(hfc_cfg, mta_cfg, params=params)
    except CheckpointError as err:
        raise CheckpointError(f"{path}: {err}") from None
    except (KeyError, TypeError, ValueError) as err:
        # ValueError covers the configs' own checks
        raise CheckpointError(f"{path}: {type(err).__name__}: {err}") from None
