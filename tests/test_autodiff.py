import numpy as np
import pytest

from inpo.autodiff import Var, concat, sigmoid, softplus, take_rows, tanh, tanh_affine


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
        (lambda v: tanh(v).sum(), lambda x: np.tanh(x).sum()),
        (lambda v: softplus(v).sum(), lambda x: np.logaddexp(0, x).sum()),
        (lambda v: sigmoid(v).sum(), lambda x: (0.5 * (1 + np.tanh(0.5 * x))).sum()),
        (lambda v: (v / 3.0).sum(), lambda x: (x / 3.0).sum()),
        (lambda v: (v**2).sum(), lambda x: (x**2).sum()),
    ],
)
def test_elementwise_ops(f_var, f_np):
    check(f_var, f_np, (4, 3))


def test_matmul_grads():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    va, vb = Var(a.copy()), Var(b.copy())
    out = (va @ vb).sum()
    out.backward()
    na = numeric_grad(lambda x: (x @ b).sum(), a.copy())
    nb = numeric_grad(lambda x: (a @ x).sum(), b.copy())
    assert np.max(np.abs(va.grad - na)) < 1e-6
    assert np.max(np.abs(vb.grad - nb)) < 1e-6


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


def test_take_rows_scatter():
    table = Var(np.arange(12, dtype=float).reshape(4, 3))
    idx = np.array([0, 2, 2, 3])
    out = take_rows(table, idx).sum()
    out.backward()
    assert np.allclose(table.grad, [[1, 1, 1], [0, 0, 0], [2, 2, 2], [1, 1, 1]])


def test_take_rows_grad_matches_add_at_bytes():
    rng = np.random.default_rng(11)
    table = Var(rng.standard_normal((9, 16)))
    idx = rng.integers(0, 9, size=1024)  # every row repeats
    g = rng.standard_normal((1024, 16))
    (take_rows(table, idx) * g).sum().backward()
    want = np.zeros((9, 16))
    np.add.at(want, idx, g)
    assert table.grad.tobytes() == want.tobytes()


def test_tanh_affine_writes_into_out_with_the_same_bytes():
    rng = np.random.default_rng(12)
    h = rng.standard_normal((300, 34))
    w = rng.standard_normal((34, 64))
    b = rng.standard_normal(64)
    want = np.tanh(h @ w + b)
    out = np.empty((300, 64))
    assert tanh_affine(h, w, b, out=out) is out
    assert out.tobytes() == want.tobytes()
    assert tanh_affine(h, w, b).tobytes() == want.tobytes()


def test_tanh_affine_on_the_tape():
    rng = np.random.default_rng(13)
    h = Var(rng.standard_normal((5, 3)))
    w = Var(rng.standard_normal((3, 4)))
    b = Var(rng.standard_normal(4))
    out = tanh_affine(h, w, b)
    assert out.data.tobytes() == np.tanh(h.data @ w.data + b.data).tobytes()
    out.sum().backward()
    g = 1.0 - out.data ** 2
    assert np.allclose(b.grad, g.sum(axis=0))
    assert np.allclose(w.grad, h.data.T @ g)
    assert np.allclose(h.grad, g @ w.data.T)


def test_getitem_slice_grad():
    v = Var(np.arange(8, dtype=float).reshape(4, 2))
    out = (v[:2] * 2.0).sum() + v[2:].sum()
    out.backward()
    assert np.allclose(v.grad, [[2, 2], [2, 2], [1, 1], [1, 1]])


def test_concat_splits_grads():
    a = Var(np.ones((2, 2)))
    b = Var(np.ones((2, 3)))
    out = (concat([a, b], axis=1) * np.arange(5.0)).sum()
    out.backward()
    assert np.allclose(a.grad, [[0, 1], [0, 1]])
    assert np.allclose(b.grad, [[2, 3, 4], [2, 3, 4]])


def test_shared_node_accumulates():
    v = Var(np.array(3.0))
    out = v * v + v * 2.0
    out.backward()
    assert out.grad == 1.0
    assert v.grad == 2 * 3.0 + 2.0


def test_dispatch_matches_numpy_bitwise():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 5))
    w = rng.standard_normal((5, 4))
    plain = np.tanh(x @ w).sum(axis=1)
    taped = tanh(Var(x) @ w).sum(axis=1)
    assert np.array_equal(plain, taped.data)


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Var(np.ones(3)).backward()
