"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Var`` wraps an ndarray and remembers how to push an incoming gradient
back to its parents.  Graphs are built per forward pass (under a hundred
dense nodes), so there is no parameter registry and no in-place reuse:
``backward(root)`` walks the graph once and leaves the gradient of every
reachable ``Var`` in ``.grad``.

All ops operate on float64 arrays and are deterministic for a given shape.
Matrix products go through BLAS, which can round differently when it splits
a large product across threads; ``gram`` avoids BLAS for that reason.
"""

from __future__ import annotations

import numpy as np


class Var:
    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _acc(node: Var, g: np.ndarray) -> None:
    node.grad = g if node.grad is None else node.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def back(g):
        _acc(a, _unbroadcast(g, a.value.shape))
        _acc(b, _unbroadcast(g, b.value.shape))

    return Var(a.value + b.value, (a, b), back)


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def back(g):
        _acc(a, _unbroadcast(g, a.value.shape))
        _acc(b, _unbroadcast(-g, b.value.shape))

    return Var(a.value - b.value, (a, b), back)


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def back(g):
        _acc(a, _unbroadcast(g * b.value, a.value.shape))
        _acc(b, _unbroadcast(g * a.value, b.value.shape))

    return Var(a.value * b.value, (a, b), back)


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def back(g):
        _acc(a, _unbroadcast(g / b.value, a.value.shape))
        _acc(b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return Var(a.value / b.value, (a, b), back)


def exp(a) -> Var:
    a = as_var(a)
    out = np.exp(a.value)
    return Var(out, (a,), lambda g: _acc(a, g * out))


def log(a) -> Var:
    a = as_var(a)
    return Var(np.log(a.value), (a,), lambda g: _acc(a, g / a.value))


def tanh(a) -> Var:
    a = as_var(a)
    out = np.tanh(a.value)
    return Var(out, (a,), lambda g: _acc(a, g * (1.0 - out * out)))


def elu(a, alpha: float) -> Var:
    a = as_var(a)
    pos = a.value >= 0
    out = np.where(pos, a.value, alpha * (np.exp(np.minimum(a.value, 0.0)) - 1.0))

    def back(g):
        # d/dz elu = 1 for z >= 0, elu(z) + alpha below
        _acc(a, g * np.where(pos, 1.0, out + alpha))

    return Var(out, (a,), back)


def clip(a, lo: float, hi: float) -> Var:
    """Clamp values into [lo, hi]; gradient passes only where unclamped."""
    a = as_var(a)
    inside = (a.value >= lo) & (a.value <= hi)

    def back(g):
        _acc(a, g * inside)

    return Var(np.clip(a.value, lo, hi), (a,), back)


def matmul(a, b) -> Var:
    """Matrix product for (..., m, k) @ (..., k, n) with equal batch shapes
    and (m, k) @ (k,) operands."""
    a, b = as_var(a), as_var(b)
    batched = a.value.ndim >= 2 and b.value.ndim >= 2
    if batched and a.value.shape[:-2] != b.value.shape[:-2]:
        raise ValueError(f"matmul batch shapes differ: {a.value.shape} @ {b.value.shape}")
    if not batched and (a.value.ndim, b.value.ndim) != (2, 1):
        raise ValueError(f"unsupported matmul ranks {a.value.ndim}@{b.value.ndim}")
    out = a.value @ b.value

    def back(g):
        if batched:
            _acc(a, g @ np.swapaxes(b.value, -1, -2))
            _acc(b, np.swapaxes(a.value, -1, -2) @ g)
        else:
            _acc(a, np.outer(g, b.value))
            _acc(b, a.value.T @ g)

    return Var(out, (a, b), back)


def gram(a) -> Var:
    """Row inner products ``a @ a.T`` of a 2-d operand.

    Summed by numpy's own einsum loops, not BLAS: at a few hundred rows a
    threaded BLAS product rounds differently from a single-threaded one.
    """
    a = as_var(a)

    def back(g):
        _acc(a, np.einsum("ij,jk->ik", g + g.T, a.value))

    return Var(np.einsum("ik,jk->ij", a.value, a.value), (a,), back)


def transpose(a) -> Var:
    """Swap the last two axes."""
    a = as_var(a)
    return Var(np.swapaxes(a.value, -1, -2), (a,), lambda g: _acc(a, np.swapaxes(g, -1, -2)))


def reshape(a, shape: tuple) -> Var:
    a = as_var(a)
    return Var(a.value.reshape(shape), (a,), lambda g: _acc(a, g.reshape(a.value.shape)))


def heads_to_columns(a) -> Var:
    """(K, n, d) head outputs to (n, K*d) rows, head k in columns k*d to (k+1)*d."""
    a = as_var(a)
    k, n, d = a.value.shape

    def back(g):
        _acc(a, np.swapaxes(g.reshape(n, k, d), 0, 1))

    return Var(np.swapaxes(a.value, 0, 1).reshape(n, k * d), (a,), back)


def attention(scores, mask: np.ndarray, slope: float) -> Var:
    """Attention weights from (K, 2, n) target and neighbor scores.

    Head k's logit for target i and neighbor j is the LeakyReLU of
    ``scores[k, 0, i] + scores[k, 1, j]``; the (K, n, n) output is its
    softmax over j among the entries where ``mask[i, j]`` is true.
    Masked-out entries get weight 0 and are never exponentiated; each row
    must keep at least one entry.  The row-max shift is a constant, and
    softmax is shift-invariant, so the gradient is exact.
    """
    a = as_var(scores)
    # masked-out pairs start at -inf, so the plain row max is the max over
    # the kept entries; slope * z <= z exactly when z >= 0, so the
    # elementwise maximum is the LeakyReLU
    z = a.value[:, 0, :, None] + np.where(mask, 0.0, -np.inf)
    z += a.value[:, 1, None, :]
    np.maximum(z, slope * z, out=z)
    pos = z >= 0
    z -= z.max(axis=-1, keepdims=True)
    out = np.exp(z, out=np.zeros_like(z), where=mask)
    out /= out.sum(axis=-1, keepdims=True)

    def back(g):
        # softmax backward, then the LeakyReLU derivative: slope below 0 and
        # 1 elsewhere (slope + (1 - slope) rounds to exactly 1 for any slope
        # in (0, 1)); on large arrays this arithmetic is faster than np.where.
        # Sums over the neighbor and the target axis give the two score rows.
        gz = g - np.einsum("...j,...j->...", g, out)[..., None]
        gz *= out
        dz = pos * (1.0 - slope)
        dz += slope
        gz *= dz
        _acc(a, np.stack([gz.sum(axis=-1), gz.sum(axis=-2)], axis=1))

    return Var(out, (a,), back)


def summation(a, axis=None) -> Var:
    a = as_var(a)

    def back(g):
        if axis is None:
            _acc(a, np.broadcast_to(g, a.value.shape).copy())
        else:
            _acc(a, np.broadcast_to(np.expand_dims(g, axis), a.value.shape).copy())

    return Var(a.value.sum(axis=axis), (a,), back)


def mean(a) -> Var:
    a = as_var(a)
    return mul(summation(a), 1.0 / a.value.size)


def backward(root: Var) -> None:
    """Accumulate d(root)/d(node) into ``.grad`` of every reachable node."""
    if root.value.ndim != 0:
        raise ValueError("backward expects a scalar root")
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
