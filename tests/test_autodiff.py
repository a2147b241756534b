import numpy as np
import pytest

from inpo.autodiff import Var, softplus
from inpo.denoiser import (
    DenoiserArch,
    DenoiserParams,
    eps_forward,
    forward_workspace,
    init_denoiser,
    params_to_tape,
    value_and_grad,
)


def numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        hi = f(x)
        flat[i] = old - h
        lo = f(x)
        flat[i] = old
        gf[i] = (hi - lo) / (2 * h)
    return g


def check(f_var, f_np, shape, seed=0, tol=1e-6):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    v = Var(x.copy())
    out = f_var(v)
    out.backward()
    num = numeric_grad(f_np, x.copy())
    assert np.max(np.abs(out.grad is not None and v.grad - num)) < tol


@pytest.mark.parametrize(
    "f_var,f_np",
    [
        (lambda v: (v * v).sum(), lambda x: (x * x).sum()),
        (lambda v: (v + 2.0 * v).mean(), lambda x: (x + 2.0 * x).mean()),
        (lambda v: (v - 0.5).sum(), lambda x: (x - 0.5).sum()),
        (lambda v: (-v * v).sum(), lambda x: (-x * x).sum()),
        (lambda v: softplus(v).sum(), lambda x: np.logaddexp(0, x).sum()),
        (lambda v: (v**2).sum(), lambda x: (x**2).sum()),
    ],
)
def test_elementwise_ops(f_var, f_np):
    check(f_var, f_np, (4, 3))


def test_bias_broadcast_grad():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((5, 3))
    b = rng.standard_normal(3)
    vb = Var(b.copy())
    out = (Var(h) + vb).sum()
    out.backward()
    assert np.allclose(vb.grad, np.full(3, 5.0))


def test_row_weight_broadcast_grad():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 2))
    w = rng.standard_normal(4)
    v = Var(x.copy())
    out = (v * w[:, None]).sum()
    out.backward()
    assert np.allclose(v.grad, np.tile(w[:, None], (1, 2)))


def test_getitem_slice_grad():
    v = Var(np.arange(8, dtype=float).reshape(4, 2))
    out = (v[:2] * 2.0).sum() + v[2:].sum()
    out.backward()
    assert np.allclose(v.grad, [[2, 2], [2, 2], [1, 1], [1, 1]])


def test_shared_node_accumulates():
    v = Var(np.array(3.0))
    out = v * v + v * 2.0
    out.backward()
    assert out.grad == 1.0
    assert v.grad == 2 * 3.0 + 2.0


def test_dispatch_matches_numpy_bitwise():
    # eps_forward on tape parameters runs the plain forward into a workspace
    # of its own; its value has the bytes of the plain forward, with and
    # without a workspace
    arch = DenoiserArch(2, (64, 64), 8, 16)
    p = init_denoiser(arch, 4)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((300, 2))
    t = rng.integers(1, 1000, size=300)
    rows = rng.integers(0, 9, size=300)
    taped = eps_forward(params_to_tape(p), x, t, rows)
    assert isinstance(taped, Var)
    assert taped.data.tobytes() == eps_forward(p, x, t, rows).tobytes()
    ws = forward_workspace(arch, 300)
    assert taped.data.tobytes() == eps_forward(p, x, t, rows, ws=ws).tobytes()


def test_take_rows_scatter():
    # the taped forward gathers condition-embedding rows; their gradient is
    # scattered back, a repeated row collecting once per use
    arch = DenoiserArch(2, (), 3, 4)
    p = init_denoiser(arch, 0)
    rows = np.array([0, 2, 2, 3])
    x = np.zeros((4, 2))
    t = np.ones(4, dtype=np.int64)
    grads = value_and_grad(p, lambda tape: eps_forward(tape, x, t, rows).sum())[1]
    per_use = p.weights[0][-4:].sum(axis=1)
    assert np.allclose(grads[-1], np.array([[1], [0], [2], [1]]) * per_use)


def test_take_rows_grad_matches_add_at_bytes():
    # repeated embedding rows add their gradients in input order, as np.add.at
    p = init_denoiser(DenoiserArch(2, (64, 64), 8, 16), 11)
    rng = np.random.default_rng(11)
    n = 1024
    x = rng.standard_normal((n, 2))
    t = rng.integers(1, 1000, size=n)
    rows = rng.integers(0, 9, size=n)  # every row repeats
    g = rng.standard_normal((n, 2))

    def grads(model, at_rows):
        return value_and_grad(model, lambda tape: (eps_forward(tape, x, t, at_rows) * g).sum())[1]

    # one embedding row per sample: the per-sample gradients, unscattered
    per_sample = DenoiserParams(p.arch, p.weights, p.biases, p.cond_embed[rows])
    want = np.zeros_like(p.cond_embed)
    np.add.at(want, rows, grads(per_sample, np.arange(n))[-1])
    assert grads(p, rows)[-1].tobytes() == want.tobytes()


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Var(np.ones(3)).backward()
