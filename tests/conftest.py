"""Shared fixtures: probe models, closed-form oracles, the RK4 reference
integrator, and the slow session-scoped trained models used by the
end-to-end tests."""
import numpy as np
import pytest

from inpo.denoiser import (
    NULL_CONDITION,
    DenoiserArch,
    DenoiserParams,
    predict_noise,
)
from inpo.errors import InvalidArgument, NumericError
from inpo.schedule import check_timestep, make_schedule


def make_linear_model(A, num_conditions=1, time_embed_dim=4, b=None):
    """Exact time-independent affine predictor eps(x) = A x + b as real params.

    Uses an empty hidden stack so the network is a single affine map; the
    time and condition blocks of the weight matrix are zeroed.
    """
    A = np.asarray(A, dtype=np.float64)
    d = A.shape[0]
    arch = DenoiserArch(d, (), num_conditions, time_embed_dim)
    W = np.zeros((d + 2 * time_embed_dim, d))
    W[:d, :] = A.T
    bias = np.zeros(d) if b is None else np.asarray(b, dtype=np.float64)
    cond_embed = np.zeros((num_conditions + 1, time_embed_dim))
    return DenoiserParams.from_arrays(arch, [W], [bias], cond_embed)


def zero_model(d=2, num_conditions=1):
    return make_linear_model(np.zeros((d, d)), num_conditions=num_conditions)


def const_model(v):
    """Affine model returning the fixed vector v for every row."""
    v = np.asarray(v, dtype=np.float64)
    return make_linear_model(np.zeros((v.size, v.size)), b=v)


def make_tanh_model(W, time_embed_dim=4):
    """Time-independent eps(x) = tanh(W x) as real params: one tanh hidden
    layer of width d and an identity output layer."""
    W = np.asarray(W, dtype=np.float64)
    d = W.shape[0]
    lin = make_linear_model(W, time_embed_dim=time_embed_dim)
    arch = DenoiserArch(d, (d,), 1, time_embed_dim)
    return DenoiserParams.from_arrays(
        arch, [lin.weights[0], np.eye(d)], [lin.biases[0], np.zeros(d)], lin.cond_embed
    )


def finite_diff(params, loss_np, h=1e-4):
    """Central differences of a plain-numpy scalar loss over every parameter."""
    grads = []
    for arr in params.flat():
        g = np.zeros_like(arr)
        flat, gf = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            hi = loss_np(params)
            flat[i] = old - h
            lo = loss_np(params)
            flat[i] = old
            gf[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def oracle_adam_step(flat, grads, state, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as one update per parameter array: ``flat`` and ``grads`` are
    lists of arrays, ``state`` has lists ``m`` and ``v`` of the same shapes
    and a step count ``t``. Byte oracle for the whole-vector adam_step."""
    state.t += 1
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for p, g, m, v in zip(flat, grads, state.m, state.v):
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def max_rel_err(ad, fd):
    worst = 0.0
    for a, f in zip(ad, fd):
        worst = max(worst, float(np.max(np.abs(a - f) / (np.abs(f) + 1e-8))))
    return worst


def expm_sym(A, s):
    """Matrix exponential exp(s A) for symmetric A via eigendecomposition."""
    w, Q = np.linalg.eigh(A)
    return (Q * np.exp(s * w)) @ Q.T


def linear_ode_solution(A, schedule, x0, t):
    """Closed-form state of the reverse-process ODE under eps(x) = A x.

    In the rescaled variable the ODE is dxbar/dsigma = A xbar / sqrt(1+s^2),
    so xbar(sigma) = expm(A asinh(sigma)) x0; returned as the latent x_t.
    """
    sg = schedule.sigma[t]
    xbar = expm_sym(A, np.arcsinh(sg)) @ np.asarray(x0, dtype=np.float64)
    return np.sqrt(schedule.alpha_bar[t]) * xbar


def oracle_ode_integrate(model, s, x, t_from: int, t_to: int, steps: int,
                         c=NULL_CONDITION, guidance_w: float = 0.0) -> np.ndarray:
    """Reference RK4 integration of the reverse-process ODE between two grid
    times; direction follows the endpoints.

    Classical fourth-order Runge-Kutta in the rescaled variable, integrating
    over the noise level with the timestep recovered by monotone
    interpolation of the schedule. It shares nothing with the product
    sampler beyond the noise prediction and schedule lookups.
    """
    if steps < 1:
        raise InvalidArgument("steps must be >= 1")
    t_from = int(check_timestep(s, t_from))
    t_to = int(check_timestep(s, t_to))
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    xbar = np.atleast_2d(x) / np.sqrt(s.alpha_bar[t_from])

    sig_a, sig_b = s.sigma[t_from], s.sigma[t_to]
    t_grid = np.arange(s.T + 1, dtype=np.float64)

    def f(sig, state):
        t_cont = np.interp(sig, s.sigma, t_grid)
        return predict_noise(model, state / np.sqrt(sig**2 + 1.0), t_cont, c, guidance_w)

    h = (sig_b - sig_a) / steps
    sig = sig_a
    for k in range(steps):
        k1 = f(sig, xbar)
        k2 = f(sig + h / 2, xbar + (h / 2) * k1)
        k3 = f(sig + h / 2, xbar + (h / 2) * k2)
        k4 = f(sig + h, xbar + h * k3)
        xbar = xbar + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        sig += h
        if not np.all(np.isfinite(xbar)):
            raise NumericError(f"non-finite oracle state at step {k}")
    out = xbar * np.sqrt(s.alpha_bar[t_to])
    return out[0] if squeeze else out


@pytest.fixture(scope="session")
def sched1000():
    return make_schedule("cosine", 1000)


@pytest.fixture(scope="session")
def toy_setup(sched1000):
    from inpo.data import default_reward_spec, gen_toy_dataset

    X, cond = gen_toy_dataset("eight_gaussians", 8000, seed=7)
    spec = default_reward_spec("eight_gaussians")
    arch = DenoiserArch(2, (64, 64), 8, 16)
    return {"X": X, "cond": cond, "spec": spec, "arch": arch, "sched": sched1000}


@pytest.fixture(scope="session")
def base_model(toy_setup):
    from inpo.trainer import pretrain_base

    return pretrain_base(
        (toy_setup["X"], toy_setup["cond"]),
        toy_setup["arch"],
        toy_setup["sched"],
        steps=8000,
        lr=1e-3,
        seed=11,
    )


GEN_CFG = dict(num_steps=40, guidance_w=1.0, t_start=950)


@pytest.fixture(scope="session")
def gen_cfg():
    """Generation settings shared by pair creation and win-rate evaluation.

    Starting at 0.95 T skips the top of the noise schedule where sigma grows
    two orders of magnitude over a handful of grid points and coarse DDIM
    steps go unstable; the prior mismatch there is negligible.
    """
    from inpo.sampler import SamplerConfig

    return SamplerConfig(**GEN_CFG)


@pytest.fixture(scope="session")
def pref_pairs(toy_setup, base_model, gen_cfg):
    from inpo.data import make_preference_pairs

    return make_preference_pairs(
        base_model,
        toy_setup["sched"],
        toy_setup["spec"],
        conditions=list(range(8)),
        pairs_per_condition=64,
        sampler_cfg=gen_cfg,
        seed=23,
    )


@pytest.fixture(scope="session")
def aligned_model(toy_setup, base_model, pref_pairs):
    from inpo.preference import DeltaStrategy
    from inpo.trainer import AlignConfig, align

    cfg = AlignConfig(
        method="inpo",
        beta=2000.0,
        delta=DeltaStrategy("inversion", n=10, guidance_w_inv=0.0),
        steps=600,
        batch_pairs=64,
        lr=1e-3,
        warmup_steps=50,
        seed=31,
    )
    return align(base_model, base_model, pref_pairs, toy_setup["sched"], cfg)
