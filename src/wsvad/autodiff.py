"""A graph runner for hand-differentiated ops, and its gradient check.

The training step is a fixed chain of three ops (the attention gate, the
scoring head and the MIL objective), each written with its own backward.
Each op returns a ``Tensor``: its forward value plus a ``grad_fn`` that maps
the gradient of that value to one gradient per parent, and ``backward``
replays those functions from the scalar loss down to the ``Parameter``
leaves. ``grad_check`` compares the result against central differences.
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
    the graph.

    ``grad_fn(g)`` returns the gradient of each parent, in ``parents``
    order, given the gradient ``g`` of this tensor.
    """

    __slots__ = ("data", "grad", "_parents", "_grad_fn")

    def __init__(self, data, parents=(), grad_fn=None):
        self.data = np.asarray(data)
        self.grad = None
        self._parents = tuple(parents)
        self._grad_fn = grad_fn

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, data={self.data!r})"


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


def backward(loss: Tensor) -> None:
    """Push d(loss)/d(node) through the graph; ``loss`` must be scalar.

    Parameter gradients accumulate across calls until ``zero_grad``; an
    intermediate node's gradient is released once it has been passed on to
    the node's parents.
    """
    if not isinstance(loss, Tensor):
        raise TypeError(f"backward needs a Tensor, got {type(loss).__name__}")
    if loss.data.size != 1:
        raise DimensionError(f"backward expects a scalar loss, got shape {loss.data.shape}")

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
        if node._grad_fn is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._grad_fn(node.grad)):
            if parent.grad is None:
                parent.grad = np.array(g, dtype=parent.data.dtype)
            else:
                parent.grad += g
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
    for p in params:
        flat = p.data.reshape(-1)
        ana = analytic[p.name].reshape(-1)
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
