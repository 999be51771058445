"""The backward of a chain of hand-differentiated ops, and its gradient check.

The training step is a fixed chain of three ops (the attention gate, the
scoring head and the MIL objective), each written with its own backward.
Each op returns a ``Tensor``: its forward value, the one op below it in the
chain (if any), and a ``grad_fn`` that maps the gradient of that value to
the gradient of the op below and the gradients of the op's own parameters,
by name. The parameter arrays themselves live in the model's registry.
``backward`` walks the chain from the scalar loss down and returns every
parameter gradient it collects, by name. ``grad_check`` compares the result
against central differences.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "DimensionError",
    "ConfigurationError",
    "record_kink_margins",
    "note_kink_margin",
    "backward",
    "grad_check",
    "GradCheckReport",
]


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class ConfigurationError(ValueError):
    """Invalid hyperparameter or malformed configuration."""


_kink_margins: list | None = None


@contextmanager
def record_kink_margins():
    """Collect each op's distance to its nearest non-differentiable point.

    While active, every leaky ReLU reports min|input| and every max over
    scores the gap between its two largest entries. Finite-difference checks
    use the collected margins to reject inputs whose perturbations would
    straddle a kink or flip an argmax.
    """
    global _kink_margins
    prev = _kink_margins
    _kink_margins = []
    try:
        yield _kink_margins
    finally:
        _kink_margins = prev


def note_kink_margin(margin) -> None:
    """Report a distance to a kink; ``margin`` is a zero-argument callable,
    called only while ``record_kink_margins`` is active."""
    if _kink_margins is not None:
        _kink_margins.append(float(margin()))


class Tensor:
    """An op's output, in the dtype the op computed it in, plus its place in
    the chain.

    ``parents`` holds the op's one op input, or nothing at the bottom of the
    chain. ``grad_fn(g)`` returns, given the gradient ``g`` of this tensor,
    the gradient of that input (None without one) and a dict of the op's
    parameter gradients by name.
    """

    __slots__ = ("data", "_parents", "_grad_fn")

    def __init__(self, data, parents=(), grad_fn=None):
        self.data = np.asarray(data)
        self._parents = tuple(parents)
        self._grad_fn = grad_fn

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, data={self.data!r})"


def backward(loss: Tensor) -> dict[str, np.ndarray]:
    """Run the chain's backward from ``loss``, which must be scalar, and
    return every parameter gradient the ops hand back, by name.

    Starting from a gradient of ones, each op's ``grad_fn`` runs once; its
    named gradients go into the result, and the walk moves on to the op's
    one op input, whose gradient takes that input's dtype. An op with two
    op inputs raises ``ValueError``. A gradient may sit in a buffer that
    the next forward through the same workspace overwrites.
    """
    if not isinstance(loss, Tensor):
        raise TypeError(f"backward needs a Tensor, got {type(loss).__name__}")
    if loss.data.size != 1:
        raise DimensionError(f"backward expects a scalar loss, got shape {loss.data.shape}")

    grads: dict[str, np.ndarray] = {}
    node, g = loss, np.ones_like(loss.data)
    while node._grad_fn is not None:
        if len(node._parents) > 1:
            raise ValueError("backward runs a chain, but an op has two op inputs")
        g, named = node._grad_fn(g)
        grads.update(named)
        if not node._parents:
            break
        node = node._parents[0]
        g = np.asarray(g, dtype=node.data.dtype)
    return grads


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


def grad_check(build, params: dict[str, np.ndarray], eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``build`` must rebuild the same scalar loss from the current values of
    the ``params`` arrays (name -> array) on every call (fix any randomness
    before calling; dropout must be off). Every entry of every array is
    perturbed by +/- eps in place. A name that ``backward`` does not return
    has an exact zero gradient. Entries where both sides are ~0 compare by
    absolute difference, so unused parameters pass exactly.
    """
    loss = build()
    if not isinstance(loss, Tensor):
        raise TypeError("grad_check: build() must return a graph Tensor")
    if not np.isfinite(loss.data).all():
        raise ValueError("grad_check: loss is not finite")
    grads = backward(loss)

    per_parameter: dict[str, float] = {}
    worst_name = ""
    worst_err = 0.0
    for name, p in params.items():
        ana = grads.get(name, np.zeros_like(p)).reshape(-1)
        if not np.isfinite(ana).all():
            raise ValueError(f"grad_check: non-finite gradient for parameter {name!r}")
        flat = p.reshape(-1)
        err_here = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(build().data)
            flat[i] = orig - eps
            f_minus = float(build().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            if not math.isfinite(numeric):
                raise ValueError(
                    f"grad_check: non-finite difference quotient for parameter {name!r}"
                )
            denom = max(abs(ana[i]), abs(numeric))
            err = abs(ana[i] - numeric) if denom < 1e-12 else abs(ana[i] - numeric) / denom
            if err > err_here:
                err_here = err
        per_parameter[name] = err_here
        if err_here >= worst_err:
            worst_err = err_here
            worst_name = name
    return GradCheckReport(
        max_rel_error=worst_err,
        worst_parameter=worst_name,
        per_parameter=per_parameter,
        tol=tol,
    )
