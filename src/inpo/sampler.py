"""Deterministic DDIM sampling and inversion in clean-sample space.

Sampling integrates the reverse-process ODE on a uniform timestep sub-grid
with the standard update

    x_next = sqrt(ab_next) * x0_hat + sqrt(1 - ab_next) * eps_hat

where x0_hat is the single-step denoised estimate. Inversion runs the same
ODE upward from a clean sample, but tracked as the pair (x0_t, delta_t): the
running denoised estimate and the running noise estimate. One model
evaluation per grid step updates both:

    e      = eps_hat( sqrt(ab_t) * x0_cur + sqrt(1 - ab_t) * delta, t )
    x0_cur = x0_cur - sigma_t * (e - delta)
    delta  = e

The first step has no prior noise estimate, so delta is initialized as the
prediction at the clean sample lifted to the first positive grid time. The
returned latent always reconstructs exactly as
sqrt(ab_t) * x0_t + sqrt(1 - ab_t) * delta_t.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import noise_predictor, predict_noise
from .errors import InvalidArgument, NumericError
from .schedule import NoiseSchedule, check_timestep


@dataclass(frozen=True)
class SamplerConfig:
    num_steps: int
    guidance_w: float = 0.0
    t_start: int | None = None  # None means the schedule's T
    t_end: int = 0

    def resolve(self, s: NoiseSchedule) -> "SamplerConfig":
        t_start = s.T if self.t_start is None else self.t_start
        if self.num_steps < 1:
            raise InvalidArgument("num_steps must be >= 1")
        if not (0 <= self.t_end < t_start <= s.T):
            raise InvalidArgument(
                f"need 0 <= t_end < t_start <= T, got ({self.t_end}, {t_start}, {s.T})"
            )
        return SamplerConfig(self.num_steps, self.guidance_w, t_start, self.t_end)


@dataclass(frozen=True)
class InversionResult:
    """Output of ddim_invert at one target timestep."""

    x0_t: np.ndarray
    delta_t: np.ndarray
    x_t: np.ndarray
    tau_t: np.ndarray


def _as_batch(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def ddim_sample(model, s: NoiseSchedule, x_start, cfg: SamplerConfig, c) -> np.ndarray:
    """Integrate from t_start down to t_end on a uniform sub-grid. Deterministic.

    ``c`` is one condition id or one per row of ``x_start``. A call binds the
    noise predictor to its grid and gathers the grid's sqrt(ab) and
    sqrt(1 - ab) once, so a step is its forward(s) and the update.
    """
    cfg = cfg.resolve(s)
    x, squeeze = _as_batch(x_start)
    grid = np.rint(np.linspace(cfg.t_start, cfg.t_end, cfg.num_steps + 1)).astype(np.int64)
    eps_fn = noise_predictor(model, c, cfg.guidance_w, x.shape[0], grid[:-1, None])
    ab = s.alpha_bar[grid]
    sq_ab, sq_1ab = np.sqrt(ab).tolist(), np.sqrt(1.0 - ab).tolist()
    for i in range(cfg.num_steps):
        eps = eps_fn(x, i)
        x0_hat = (x - sq_1ab[i] * eps) / sq_ab[i]
        x = sq_ab[i + 1] * x0_hat + sq_1ab[i + 1] * eps
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite sample at step {i} (t={grid[i]} -> {grid[i + 1]})")
    return x[0] if squeeze else x


def initial_variable(model, s: NoiseSchedule, x_t, t, c, guidance_w: float = 0.0) -> np.ndarray:
    """Single-step denoised estimate x_t / sqrt(ab_t) - sigma_t * eps_hat."""
    t = check_timestep(s, t, min_t=1)
    x, squeeze = _as_batch(x_t)
    ab = s.alpha_bar[t]
    sg = s.sigma[t]
    if np.ndim(t) == 1:
        ab, sg = ab[:, None], sg[:, None]
    eps = predict_noise(model, x, t, c, guidance_w)
    out = x / np.sqrt(ab) - sg * eps
    return out[0] if squeeze else out


def ddim_invert(
    model,
    s: NoiseSchedule,
    x0,
    t_target,
    n: int,
    c,
    guidance_w_inv: float = 0.0,
) -> InversionResult:
    """Run inversion from a clean sample up to t_target over n uniform steps.

    ``x0`` may be one vector or a (batch, dim) array; ``t_target`` may be a
    scalar or a per-row array of the batch's length. Rows are independent.
    A call binds the noise predictor to its grid and gathers the grid's
    sqrt(ab), sqrt(1 - ab) and sigma once, so a step is one forward and the
    update.
    """
    if n < 1:
        raise InvalidArgument("inversion step count must be >= 1")
    x0a, squeeze = _as_batch(x0)
    tt = check_timestep(s, t_target, min_t=1)
    tcol = tt[..., None]  # one grid row per target: 1 or per row
    grid = np.rint(np.linspace(0.0, 1.0, n + 1)[None, :] * tcol).astype(np.int64)
    eps_fn = noise_predictor(model, c, guidance_w_inv, x0a.shape[0], grid[:, 1:].T)
    ab = s.alpha_bar[grid.T][..., None]
    sq_ab, sq_1ab = np.sqrt(ab), np.sqrt(1.0 - ab)
    sg = s.sigma[grid.T][..., None]

    delta = eps_fn(sq_ab[1] * x0a, 0)
    x0_cur = x0a.copy()
    for i in range(2, n + 1):
        e = eps_fn(sq_ab[i] * x0_cur + sq_1ab[i] * delta, i - 1)
        x0_cur = x0_cur - sg[i] * (e - delta)
        delta = e
        if not np.all(np.isfinite(x0_cur)):
            raise NumericError(f"non-finite inversion state at step {i} of {n}")

    x_t = reconstruct_xt(s, x0_cur, delta, tt)
    tau = compute_tau(s, x0_cur, delta, x0a, tt)
    if squeeze:
        x0_cur, delta, x_t, tau = x0_cur[0], delta[0], x_t[0], tau[0]
    return InversionResult(x0_t=x0_cur, delta_t=delta, x_t=x_t, tau_t=tau)


def reconstruct_xt(s: NoiseSchedule, x0_t, delta_t, t) -> np.ndarray:
    """Latent at time t implied by a (denoised estimate, noise estimate) pair."""
    t = check_timestep(s, t, min_t=1)
    x0_t = np.asarray(x0_t, dtype=np.float64)
    delta_t = np.asarray(delta_t, dtype=np.float64)
    if x0_t.shape != delta_t.shape:
        raise InvalidArgument(f"x0_t shape {x0_t.shape} != delta_t shape {delta_t.shape}")
    ab = s.alpha_bar[t]
    if x0_t.ndim == 2 and np.ndim(ab) == 1:
        ab = ab[:, None]
    return np.sqrt(ab) * x0_t + np.sqrt(1.0 - ab) * delta_t


def compute_tau(s: NoiseSchedule, x0_t, delta_t, x0, t) -> np.ndarray:
    """Regression target (x0_t - x0) / sigma_t + delta_t.

    Algebraically equal to (x_t - sqrt(ab_t) * x0) / sqrt(1 - ab_t) for the
    latent reconstructed from (x0_t, delta_t).
    """
    t = check_timestep(s, t, min_t=1)
    x0_t = np.asarray(x0_t, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    delta_t = np.asarray(delta_t, dtype=np.float64)
    if not (x0_t.shape == x0.shape == delta_t.shape):
        raise InvalidArgument("x0_t, delta_t, x0 must share a shape")
    sg = s.sigma[t]
    if x0_t.ndim == 2 and np.ndim(sg) == 1:
        sg = sg[:, None]
    return (x0_t - x0) / sg + delta_t
