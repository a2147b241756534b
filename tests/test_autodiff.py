import numpy as np
import pytest

from inpo.autodiff import Var
from inpo.denoiser import (
    BoundWorkspace,
    DenoiserArch,
    DenoiserParams,
    eps_forward,
    TapeParams,
    init_denoiser,
    time_embedding,
    value_and_grad,
)
from inpo.preference import pair_loss_terms, sft_terms
from inpo.schedule import make_schedule

from conftest import make_linear_model


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


def head(node, g):
    """A scalar node sum(node * g): backward hands ``node`` the upstream
    gradient ``g``."""
    return Var((node.data * g).sum(), node, lambda up: up * g)


# The loss heads see the network only through its output. output_net(y) is
# an affine network whose output on the identity input X is exactly y, so
# the gradient of its first N weight rows is the head's gradient with
# respect to the output, and a plain-numpy formula of y is an oracle of the
# head's value. The pair heads stack N // 2 winner rows over as many loser
# rows, each of width N.
N = 6
B = N // 2
X = np.eye(N)
T = np.arange(10, 70, 10)
ROWS = np.zeros(N, dtype=np.int64)
S = make_schedule("cosine", 100)
S_SNR = make_schedule("cosine", 100, "snr")
_draws = np.random.default_rng(7)
EPS = _draws.standard_normal((N, N))
TAU_W, TAU_L = _draws.standard_normal((2, B, N))
Y_REF = _draws.standard_normal((N, N))


def output_net(y):
    return make_linear_model(y.T)


REF = output_net(Y_REF)


def sft(s):
    return lambda m: sft_terms(m, s, X, T, ROWS, ROWS, EPS)


def sft_np(s):
    return lambda y: (s.loss_weight[T] * ((y - EPS) ** 2).sum(axis=1)).mean()


def pair(s, beta, tau_w=TAU_W, tau_l=TAU_L):
    return lambda m: pair_loss_terms(m, REF, s, X[:B], tau_w, X[B:], tau_l, T[:B], 0,
                                     beta)["mean_total"]


def _pair_value(y, s, beta, tau_w, tau_l):
    def term(tau, out):
        return ((tau - out) ** 2).sum(axis=1)

    D = (term(tau_w, y[:B]) - term(tau_w, Y_REF[:B])
         - term(tau_l, y[B:]) + term(tau_l, Y_REF[B:]))
    return np.logaddexp(0.0, beta * s.loss_weight[T[:B]] * D).mean()


def pair_np(s, beta, tau_w=TAU_W, tau_l=TAU_L):
    return lambda y: _pair_value(y, s, beta, tau_w, tau_l)


def check(f_var, f_np, seed=0, tol=1e-6):
    y = np.random.default_rng(seed).standard_normal((N, N))
    val, grad = value_and_grad(output_net(y), f_var)
    assert val == pytest.approx(f_np(y), rel=1e-12)
    num = numeric_grad(f_np, y.copy())
    assert np.max(np.abs(grad.weights[0][:N] - num)) < tol


@pytest.mark.parametrize(
    "f_var,f_np",
    [
        # the heads' elementwise arithmetic (differences, squares, row
        # weights, means, softplus) differentiated in closed form
        (sft(S), sft_np(S)),
        (sft(S_SNR), sft_np(S_SNR)),
        (pair(S, 1.0), pair_np(S, 1.0)),
        (pair(S_SNR, 0.1), pair_np(S_SNR, 0.1)),
        (pair(S, 1.0, TAU_L, TAU_W), pair_np(S, 1.0, TAU_L, TAU_W)),
        (pair(S, 0.0), pair_np(S, 0.0)),
    ],
)
def test_elementwise_ops(f_var, f_np):
    check(f_var, f_np)


def test_bias_broadcast_grad():
    # the network adds each bias to every row; the bias collects every row's
    # gradient
    p = init_denoiser(DenoiserArch(3, (), 2, 4), 2)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3))
    t = np.arange(1, 6)
    rows = np.array([0, 1, 2, 0, 1])
    grad = value_and_grad(p, lambda tape: head(eps_forward(tape, x, t, rows), np.ones((5, 3))))[1]
    assert np.allclose(grad.biases[0], np.full(3, 5.0))


def test_row_weight_broadcast_grad():
    # the denoising head weights row i by w(t_i) across all its columns
    y = np.random.default_rng(3).standard_normal((N, N))
    grad = value_and_grad(output_net(y), sft(S_SNR))[1]
    w = S_SNR.loss_weight[T]
    assert np.allclose(grad.weights[0][:N], (2.0 / N) * w[:, None] * (y - EPS), rtol=1e-12, atol=0)


def test_getitem_slice_grad():
    # the pair head reads winners from the first half of the stacked output
    # and losers from the second; each half receives its own gradient
    y = np.random.default_rng(4).standard_normal((N, N))
    grad = value_and_grad(output_net(y), pair(S_SNR, 0.1))[1]
    terms = pair_loss_terms(output_net(y), REF, S_SNR, X[:B], TAU_W, X[B:], TAU_L, T[:B], 0, 0.1)
    scale = -0.1 * S_SNR.loss_weight[T[:B]]
    g_w = (-(1.0 / B) * scale / (1.0 + np.exp(terms["sigmoid_arg"])))[:, None]
    assert np.allclose(grad.weights[0][:B], -2.0 * g_w * (TAU_W - y[:B]), rtol=1e-12, atol=0)
    assert np.allclose(grad.weights[0][B:N], 2.0 * g_w * (TAU_L - y[B:]), rtol=1e-12, atol=0)


def test_dispatch_matches_numpy_bitwise():
    # eps_forward on tape parameters runs the plain forward into a workspace
    # of its own; its value has the bytes of the plain forward, one-off and
    # in a BoundWorkspace bound to the batch's timesteps, and of the network
    # written as numpy expressions on a concatenated input
    arch = DenoiserArch(2, (64, 64), 8, 16)
    p = init_denoiser(arch, 4)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((300, 2))
    t = rng.integers(1, 1000, size=300)
    rows = rng.integers(0, 9, size=300)
    taped = eps_forward(TapeParams(p), x, t, rows)
    assert isinstance(taped, Var)
    assert taped.data.tobytes() == eps_forward(p, x, t, rows).tobytes()
    ws = BoundWorkspace(arch, 300, time_embedding(t, arch.time_embed_dim)[None])
    assert taped.data.tobytes() == eps_forward(p, x, 0, rows, ws=ws).tobytes()
    h = np.concatenate([x, time_embedding(t, 16), p.cond_embed[rows]], axis=1)
    for w, b in zip(p.weights[:-1], p.biases[:-1]):
        h = np.tanh(h @ w + b)
    assert taped.data.tobytes() == (h @ p.weights[-1] + p.biases[-1]).tobytes()


def test_take_rows_scatter():
    # the taped forward gathers condition-embedding rows; their gradient is
    # scattered back, a repeated row collecting once per use
    arch = DenoiserArch(2, (), 3, 4)
    p = init_denoiser(arch, 0)
    rows = np.array([0, 2, 2, 3])
    x = np.zeros((4, 2))
    t = np.ones(4, dtype=np.int64)
    grad = value_and_grad(p, lambda tape: head(eps_forward(tape, x, t, rows), np.ones((4, 2))))[1]
    per_use = p.weights[0][-4:].sum(axis=1)
    assert np.allclose(grad.cond_embed, np.array([[1], [0], [2], [1]]) * per_use)


def test_take_rows_grad_matches_add_at_bytes():
    # repeated embedding rows add their gradients in input order, as np.add.at
    p = init_denoiser(DenoiserArch(2, (64, 64), 8, 16), 11)
    rng = np.random.default_rng(11)
    n = 1024
    x = rng.standard_normal((n, 2))
    t = rng.integers(1, 1000, size=n)
    rows = rng.integers(0, 9, size=n)  # every row repeats
    g = rng.standard_normal((n, 2))

    def embed_grad(model, at_rows):
        grad = value_and_grad(model, lambda tape: head(eps_forward(tape, x, t, at_rows), g))[1]
        return grad.cond_embed

    # one embedding row per sample: the per-sample gradients, unscattered
    per_sample = DenoiserParams.from_arrays(
        DenoiserArch(2, (64, 64), n - 1, 16), p.weights, p.biases, p.cond_embed[rows]
    )
    want = np.zeros_like(p.cond_embed)
    np.add.at(want, rows, embed_grad(per_sample, np.arange(n)))
    assert embed_grad(p, rows).tobytes() == want.tobytes()


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Var(np.ones(3)).backward()
