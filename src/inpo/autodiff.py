"""Reverse-mode gradients along a chain of closed-form nodes.

A differentiated loss is a chain: a loss head (preference.sft_terms or
pair_loss_terms), the network (denoiser.eps_forward on TapeParams) and the
parameter-vector leaf; backward walks it root to leaf through each VJP.
Each VJP calls the same helpers as the heads' closed-form functions
(preference.pair_value_and_grad, sft_value_and_grad, and
denoiser.eps_backward), which training runs; the tape is kept as their
reference in the tests and for the benchmark's tracing hooks.
"""
from __future__ import annotations

import numpy as np


class Var:
    """A chain node: a float64 array, its parent node and the VJP to it."""

    __slots__ = ("data", "grad", "_parent", "_vjp")

    def __init__(self, data, parent=None, vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parent = parent
        self._vjp = vjp

    def backward(self):
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar root")
        node = self
        node.grad = np.ones((), dtype=np.float64)
        while node._parent is not None:
            node._parent.grad = node._vjp(node.grad)
            node = node._parent
