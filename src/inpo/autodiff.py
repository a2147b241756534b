"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Sized to what the losses in this package need: dense layers, tanh, embedding
gathers, row slicing, broadcasting arithmetic, and scalar reductions. The
dispatch helpers (tanh, softplus, concat, take_rows, tanh_affine) accept
either a Var or a plain ndarray, so a single forward implementation serves
both the plain numpy path and the differentiated path with bit-identical
arithmetic. On plain arrays concat and tanh_affine can write into a caller's
buffer (``out``); the tape always allocates, since its nodes keep their data.
"""
from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Var:
    """A node in the tape: a float64 array plus how to push gradients back."""

    __slots__ = ("data", "grad", "_parents", "_vjp")
    __array_ufunc__ = None  # force numpy to defer to our reflected operators

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    @staticmethod
    def _lift(x) -> "Var":
        return x if isinstance(x, Var) else Var(x)

    def __add__(self, other):
        a, b = self, Var._lift(other)
        return Var(
            a.data + b.data,
            (a, b),
            lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
        )

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, Var._lift(other)
        return Var(
            a.data - b.data,
            (a, b),
            lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
        )

    def __rsub__(self, other):
        return Var._lift(other).__sub__(self)

    def __neg__(self):
        return Var(-self.data, (self,), lambda g: (-g,))

    def __mul__(self, other):
        a, b = self, Var._lift(other)
        return Var(
            a.data * b.data,
            (a, b),
            lambda g: (
                _unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape),
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            raise TypeError("divide by a constant or multiply by a reciprocal")
        c = np.asarray(other, dtype=np.float64)
        return Var(self.data / c, (self,), lambda g: (_unbroadcast(g / c, self.data.shape),))

    def __matmul__(self, other):
        a, b = self, Var._lift(other)
        return Var(
            a.data @ b.data,
            (a, b),
            lambda g: (g @ b.data.T, a.data.T @ g),
        )

    def __rmatmul__(self, other):
        return Var._lift(other).__matmul__(self)

    def __pow__(self, p):
        if p != 2:
            raise TypeError("only squaring is supported")
        return self * self

    def __getitem__(self, key):
        out = self.data[key]
        fancy = isinstance(key, np.ndarray) or (
            isinstance(key, tuple) and any(isinstance(k, np.ndarray) for k in key)
        )

        def vjp(g):
            full = np.zeros_like(self.data)
            if fancy:  # index arrays may repeat positions
                np.add.at(full, key, g)
            else:
                full[key] += g
            return (full,)

        return Var(out, (self,), vjp)

    def sum(self, axis=None):
        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, self.data.shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis), self.data.shape).copy(),)

        return Var(self.data.sum(axis=axis), (self,), vjp)

    def mean(self):
        n = self.data.size
        return Var(
            self.data.mean(),
            (self,),
            lambda g: (np.broadcast_to(g / n, self.data.shape).copy(),),
        )

    def backward(self):
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar root")
        order: list[Var] = []
        seen: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                parent.grad = g if parent.grad is None else parent.grad + g


def tanh(x):
    if isinstance(x, Var):
        out = np.tanh(x.data)
        return Var(out, (x,), lambda g: (g * (1.0 - out * out),))
    return np.tanh(x)


def sigmoid(x):
    # Stable logistic via tanh; used both as a value and as softplus' slope.
    if isinstance(x, Var):
        out = 0.5 * (1.0 + np.tanh(0.5 * x.data))
        return Var(out, (x,), lambda g: (g * out * (1.0 - out),))
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softplus(x):
    if isinstance(x, Var):
        slope = 0.5 * (1.0 + np.tanh(0.5 * x.data))
        return Var(np.logaddexp(0.0, x.data), (x,), lambda g: (g * slope,))
    return np.logaddexp(0.0, x)


def concat(parts, axis=0, out=None):
    if any(isinstance(p, Var) for p in parts):
        vs = [Var._lift(p) for p in parts]
        sizes = [v.data.shape[axis] for v in vs]
        splits = np.cumsum(sizes)[:-1]

        def vjp(g):
            return tuple(np.split(g, splits, axis=axis))

        return Var(np.concatenate([v.data for v in vs], axis=axis), tuple(vs), vjp)
    return np.concatenate(parts, axis=axis, out=out)


def tanh_affine(h, w, b, out=None):
    """One hidden layer, tanh(h @ w + b).

    On plain arrays the product, the bias and the tanh share one array,
    ``out`` when given, with the same arithmetic op for op.
    """
    if isinstance(h, Var) or isinstance(w, Var):
        return tanh(h @ w + b)
    out = np.matmul(h, w, out=out)
    out += b
    return np.tanh(out, out=out)


def take_rows(table, idx):
    idx = np.asarray(idx)
    if isinstance(table, Var):
        rows, width = table.data.shape

        def vjp(g):
            # flat (row * width + col) bins add in input order, as np.add.at does
            flat = (idx[:, None] * width + np.arange(width)).ravel()
            full = np.bincount(flat, weights=g.ravel(), minlength=rows * width)
            return (full.reshape(rows, width),)

        return Var(table.data[idx], (table,), vjp)
    return table[idx]
