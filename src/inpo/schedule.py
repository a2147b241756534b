"""Discrete diffusion noise schedule.

A schedule stores three tables over the integer grid t in {0..T}:

    alpha_bar[t]   cumulative signal level, alpha_bar[0] = 1, strictly decreasing
    sigma[t]       reparameterized noise level sqrt(1 - alpha_bar) / sqrt(alpha_bar)
    loss_weight[t] per-timestep weight for the denoising objective

and sqrt_alpha_bar[t] and sqrt_one_minus_alpha_bar[t], the square roots of
alpha_bar[t] and 1 - alpha_bar[t], which noising, sampling and inversion
gather instead of taking the roots again (IEEE sqrt is correctly rounded,
so the bits are the same).

The identity sigma[t]^2 + 1 = 1/alpha_bar[t] holds at every grid point, which
is what lets the deterministic sampler treat the reverse process as an ODE in
the rescaled variable x_t / sqrt(alpha_bar[t]).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

SCHEDULE_KINDS = ("cosine", "linear_beta")
LOSS_WEIGHT_KINDS = ("constant", "snr")

# Floor keeps sigma[T] finite and moderate; without it the squared-cosine
# curve reaches ~1e-33 at t = T and sigma blows up to ~1e16.
ALPHA_BAR_FLOOR = 1e-5
_COSINE_OFFSET = 0.008
_BETA_START = 1e-4
_BETA_END = 0.02


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable noise schedule over t in {0..T}; safe to share across threads."""

    kind: str
    T: int
    alpha_bar: np.ndarray
    sigma: np.ndarray
    loss_weight: np.ndarray
    sqrt_alpha_bar: np.ndarray
    sqrt_one_minus_alpha_bar: np.ndarray


def _cosine_alpha_bar(T: int) -> np.ndarray:
    t = np.arange(T + 1, dtype=np.float64)
    theta = ((t / T + _COSINE_OFFSET) / (1.0 + _COSINE_OFFSET)) * (np.pi / 2.0)
    f = np.cos(theta) ** 2
    ab = f / f[0]
    ab[0] = 1.0
    return ab


def _linear_beta_alpha_bar(T: int) -> np.ndarray:
    betas = np.linspace(_BETA_START, _BETA_END, T)
    ab = np.empty(T + 1, dtype=np.float64)
    ab[0] = 1.0
    ab[1:] = np.cumprod(1.0 - betas)
    return ab


def _apply_floor(ab: np.ndarray) -> np.ndarray:
    # Replace any tail that falls below the floor with a log-linear bridge
    # ending exactly at the floor, so alpha_bar stays strictly decreasing.
    below = ab < ALPHA_BAR_FLOOR
    if not below.any():
        return ab
    k = int(np.argmax(below))
    T = len(ab) - 1
    m = T - (k - 1)
    ratio = (ALPHA_BAR_FLOOR / ab[k - 1]) ** (1.0 / m)
    ab[k:] = ab[k - 1] * ratio ** np.arange(1, m + 1, dtype=np.float64)
    ab[T] = ALPHA_BAR_FLOOR
    return ab


def make_schedule(kind: str, T: int, loss_weight: str = "constant") -> NoiseSchedule:
    """Build a noise schedule of the given kind over t in {0..T}.

    ``cosine`` follows the squared-cosine alpha_bar curve with the low end
    clipped away from zero; ``linear_beta`` takes a linearly spaced per-step
    variance grid and accumulates alpha_bar as its running product.
    """
    if kind not in SCHEDULE_KINDS:
        raise InvalidArgument(f"unknown schedule kind {kind!r}")
    if loss_weight not in LOSS_WEIGHT_KINDS:
        raise InvalidArgument(f"unknown loss_weight kind {loss_weight!r}")
    if not isinstance(T, (int, np.integer)) or T < 2:
        raise InvalidArgument(f"T must be an integer >= 2, got {T!r}")
    T = int(T)

    if kind == "cosine":
        ab = _cosine_alpha_bar(T)
    else:
        ab = _linear_beta_alpha_bar(T)
    ab = _apply_floor(ab)

    sigma = np.sqrt((1.0 - ab) / ab)
    sigma[0] = 0.0

    if loss_weight == "constant":
        w = np.ones(T + 1, dtype=np.float64)
    else:
        w = sigma**2
        w[0] = 1.0

    sqrt_ab = np.sqrt(ab)
    sqrt_1mab = np.sqrt(1.0 - ab)
    for arr in (ab, sigma, w, sqrt_ab, sqrt_1mab):
        arr.flags.writeable = False
    return NoiseSchedule(kind=kind, T=T, alpha_bar=ab, sigma=sigma, loss_weight=w,
                         sqrt_alpha_bar=sqrt_ab, sqrt_one_minus_alpha_bar=sqrt_1mab)


def check_timestep(s: NoiseSchedule, t, min_t: int = 0):
    """Validate t (scalar or array) against the grid; returns an integer array."""
    t = np.asarray(t)
    if not np.issubdtype(t.dtype, np.integer):
        if not np.all(t == np.floor(t)):
            raise InvalidArgument("timestep must be an integer")
        t = t.astype(np.int64)
    if t.size and (t.min() < min_t or t.max() > s.T):
        raise InvalidArgument(f"timestep out of range [{min_t}, {s.T}]")
    return t


def forward_diffuse(s: NoiseSchedule, x0, t, eps) -> np.ndarray:
    """Noise a clean sample: sqrt(alpha_bar[t]) * x0 + sqrt(1 - alpha_bar[t]) * eps.

    ``x0`` and ``eps`` may be single vectors or (batch, dim) arrays; ``t`` may
    be a scalar or a per-row array of timesteps.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise InvalidArgument(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    return _noise(s, x0, check_timestep(s, t), eps)


def _noise(s: NoiseSchedule, x0: np.ndarray, t: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """forward_diffuse's gather and arithmetic, unchecked: ``t``, an integer
    array of one timestep or one per row of ``x0``, must lie in [0, T], and
    ``eps`` have x0's shape. A training window calls it on its own draws."""
    a, b = s.sqrt_alpha_bar[t], s.sqrt_one_minus_alpha_bar[t]
    if x0.ndim == 2 and t.ndim == 1:
        a, b = a[:, None], b[:, None]
    return a * x0 + b * eps
