"""Reverse-mode gradients over a graph of closed-form nodes.

A node is a float64 array with its parents and a function mapping its
gradient to theirs. A differentiated loss has exactly two nodes above the
parameter leaves: the network (denoiser.eps_forward on TapeParams) and one
loss head over it (preference.sft_terms or preference.pair_loss_terms), each
with a hand-written VJP. backward visits them once, in reverse topological
order, and adds the gradients a shared parent receives.
"""
from __future__ import annotations

import numpy as np


class Var:
    """A node in the graph: a float64 array plus how to push gradients back."""

    __slots__ = ("data", "grad", "_parents", "_vjp")

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

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
