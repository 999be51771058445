"""Reference code that the tests compare the package against: a per-kernel
'same' convolution and a named graph leaf."""

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


def leaf(data, name: str) -> Tensor:
    """A graph node at the bottom of a chain that hands its gradient back as
    a parameter's, under ``name``; ``data`` is held without a copy."""
    return Tensor(data, (), lambda g: (None, {name: g}))
