"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Sized to what the loss heads need on top of the network: broadcasting
arithmetic, squaring, basic (slice) indexing, sums and means, and softplus,
which also accepts a plain array so the loss heads run unchanged on plain
parameters. The network itself enters the tape as one node with a
closed-form backward (denoiser.eps_forward on TapeParams); a node is any Var
built with its parents and a function mapping its gradient to theirs.
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

    def __pow__(self, p):
        if p != 2:
            raise TypeError("only squaring is supported")
        return self * self

    def __getitem__(self, key):
        # basic indexing only: an index array may repeat positions, and
        # ``+=`` would keep just one of their gradients
        def vjp(g):
            full = np.zeros_like(self.data)
            full[key] += g
            return (full,)

        return Var(self.data[key], (self,), vjp)

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


def softplus(x):
    if isinstance(x, Var):
        slope = 0.5 * (1.0 + np.tanh(0.5 * x.data))
        return Var(np.logaddexp(0.0, x.data), (x,), lambda g: (g * slope,))
    return np.logaddexp(0.0, x)
