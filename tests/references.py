"""Reference code that the tests compare the package against: a per-kernel
'same' convolution, a frozen inference pass of the scoring head, the
dropout masks of a stack drawn word by word, and a named graph leaf."""

from __future__ import annotations

import numpy as np

from wsvad.autodiff import ConfigurationError, DimensionError, Tensor
from wsvad.model import _padded_rows


def conv1d_same(x, weight, bias):
    """1-d cross-correlation with zero 'same' padding, along the last axis of
    a signal or of each row of a stack of them.

    out[..., i] = b + sum_j w[j] * x[..., i + j - k//2], out-of-range x
    entries read as zero, so the output length equals the input length.
    ``model.mta_forward`` pads once for all its kernels instead; this
    per-kernel form is the reference it is checked against.
    """
    if weight.ndim != 1:
        raise DimensionError(f"conv1d_same expects a 1-d kernel, got shape {weight.shape}")
    if bias.size != 1:
        raise DimensionError(f"conv1d_same expects a single bias value, got shape {bias.shape}")
    k = weight.shape[0]
    t = x.shape[-1]
    if k % 2 == 0 or k < 3:
        raise ConfigurationError(f"conv1d_same kernel size must be odd and >= 3, got {k}")
    if k > t:
        raise ConfigurationError(f"conv1d_same kernel size {k} exceeds signal length {t}")
    half = k // 2
    corr = np.correlate(_padded_rows(x, t, half, half), weight, mode="valid")
    # the first t outputs of each padded row are that row's; the rest
    # straddle two rows and are dropped
    return corr.reshape(-1, t + 2 * half)[:, :t].reshape(x.shape) + bias.reshape(())


def inference_head(x, params, slope: float, gate=None) -> np.ndarray:
    """The scoring head's inference pass as it was before one layer sequence
    served a bag, a stack and a list, kept here unchanged so that the head's
    bits stay pinned: each bag (T, D) of ``x`` (one bag, a stack or a list)
    multiplied by the first weight in its own product into its rows of one
    activation shaped like the bag axes, the ``gate`` cast to the
    parameters' dtype and applied after that product, then the leaky ReLU
    and the later layers on fresh arrays, as ``leaky_relu`` and
    ``_head_tail`` computed them, the last logit widened to float64 before
    the sigmoid."""
    w0, b0, w1, b1, w2, b2 = (params[f"head.{i}.{kind}"] for i in range(3) for kind in ("weight", "bias"))
    dtype = w0.dtype
    if isinstance(x, list):
        bags = [np.asarray(b) for b in x]
        bag_axes = (len(bags), bags[0].shape[0])
    else:
        x = np.asarray(x)
        bag_axes = x.shape[:-1]
        bags = x.reshape((-1,) + x.shape[-2:])
    xw = np.empty(bag_axes + (w0.shape[1],), dtype)
    for bag, out in zip(bags, xw.reshape((-1,) + xw.shape[-2:])):
        np.matmul(np.asarray(bag, dtype=dtype), w0, out=out)
    if gate is not None:
        xw *= np.asarray(gate, dtype=dtype).reshape(bag_axes + (1,))
    xw += b0
    h1 = np.maximum(xw, np.multiply(xw, slope))
    z2 = h1 @ w1
    z2 += b1
    h2 = np.maximum(z2, np.multiply(z2, slope))
    logit = (h2 @ w2 + b2).astype(np.float64, copy=False)
    e = np.exp(-np.abs(logit))
    return (np.where(logit >= 0, 1.0, e) / (1.0 + e)).reshape(bag_axes)


def dropout_masks(rng, rows: int, widths, rate: float) -> list[np.ndarray]:
    """The float64 dropout masks of ``rows`` stack rows, one (rows, width)
    mask per width: each layer takes its own ceil(rows * width / 4) raw
    words, split as Python integers into 16-bit slices, low bits first, of
    which the first rows * width are its units in row-major order. A unit
    is kept when its slice is >= thr = min(round(rate * 2^16), 2^16 - 1),
    and a kept unit is scaled by 2^16 / (2^16 - thr)."""
    thr = min(round(rate * 2**16), 2**16 - 1)
    masks = []
    for w in widths:
        words = [int(word) for word in rng.bit_generator.random_raw(-(-rows * w // 4))]
        slices = np.array([(word >> (16 * k)) & 0xFFFF for word in words for k in range(4)][: rows * w])
        masks.append((slices.reshape(rows, w) >= thr) * (2**16 / (2**16 - thr)))
    return masks


def leaf(data, name: str) -> Tensor:
    """A graph node at the bottom of a chain that hands its gradient back as
    a parameter's, under ``name``; ``data`` is held without a copy."""
    return Tensor(data, (), lambda g: (None, {name: g}))
