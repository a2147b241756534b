"""A fixed CPU workload that measures how fast the machine runs right now.

On a shared virtual machine the speed the worker gets moves by up to 1.7x
over seconds to minutes, with the neighbours' load on the shared core and
its caches, and CPU time moves with it. The worker runs this kernel next to
every round; a round's CPU time over the kernel's CPU time is then a
property of the code under test, not of the moment it ran.

The kernel does the kind of work the program does, but none of the
program's code: forward and backward passes of a 2-64-64-2 SiLU MLP on
batches of 64 rows, with an Adam update, in float64 numpy driven from
Python. It depends only on numpy, so no change to ``src/inpo`` moves it.
"""
from __future__ import annotations

import time

import numpy as np

STEPS = 150
WARMUP_STEPS = 10  # untimed, so the first measurement in a process is not a cold one
# The kernel's CPU time on an undisturbed vCPU of the machine the benchmark
# was built on (2.0 GHz Xeon; the fastest tenth of 1693 runs took 34.7-36.9
# ms, the median 53.7 ms). Times "at the reference speed" are CPU times
# scaled by this over the kernel's time measured next to them.
REFERENCE_CPU_S = 0.036
BATCH = 64
SIZES = (18, 64, 64, 2)  # input: 2 coordinates and a 16-wide time embedding


def _silu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s, s


def _kernel(steps: int) -> float:
    rng = np.random.default_rng(0)
    ws = [rng.standard_normal((a, b)) / np.sqrt(a) for a, b in zip(SIZES, SIZES[1:])]
    ms = [np.zeros_like(w) for w in ws]
    vs = [np.zeros_like(w) for w in ws]
    freqs = np.exp(-np.log(1000.0) * np.arange(8) / 8)
    loss = 0.0
    for step in range(1, steps + 1):
        pts = rng.standard_normal((BATCH, 2))
        t = rng.integers(0, 1000, BATCH)[:, None] * freqs
        acts = [np.concatenate([pts, np.sin(t), np.cos(t)], axis=1)]
        gates = []
        for w in ws[:-1]:
            h, s = _silu(acts[-1] @ w)
            acts.append(h)
            gates.append((acts[-1], s))
        err = acts[-1] @ ws[-1] - pts
        loss = float(np.mean(err * err))
        grad = 2.0 * err / err.size
        grads = [None] * len(ws)
        for k in range(len(ws) - 1, -1, -1):
            grads[k] = acts[k].T @ grad
            if k:
                h, s = gates[k - 1]
                pre = grad @ ws[k].T
                grad = pre * (s + h * (1.0 - s))
        for w, g, m, v in zip(ws, grads, ms, vs):
            m *= 0.9
            m += 0.1 * g
            v *= 0.999
            v += 0.001 * g * g
            w -= 1e-3 * (m / (1 - 0.9 ** step)) / (np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
    return loss


def measure() -> float:
    """CPU seconds the kernel takes now; the result is checked, not discarded."""
    _kernel(WARMUP_STEPS)
    start = time.process_time()
    loss = _kernel(STEPS)
    cpu = time.process_time() - start
    if not np.isfinite(loss):
        raise RuntimeError(f"yardstick kernel diverged: loss {loss}")
    return cpu
