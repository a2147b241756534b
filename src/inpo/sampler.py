"""Deterministic DDIM sampling and inversion in clean-sample space.

Sampling integrates the reverse-process ODE on a uniform timestep sub-grid
from t_start down to 0 (every grid ends at the clean sample) with the
standard update

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

Inversion has one code path, the Inverter: bound to (model, schedule, n,
rows, guidance weight), it holds the grid fractions and a NoisePredictor.
Each call builds its grid and gathers the grid's sqrt(ab), sqrt(1 - ab) and
sigma from the schedule's tables, rebinds the predictor to its timesteps and
conditions, and runs the update as plain expressions like _sample_on's, so
every array an Inverter returns is fresh. align's pair window builds one
per call and hands it to the targets of every window (preference._targets);
ddim_invert is a one-off Inverter call. ddim_sample binds a NoisePredictor
once per call, so a step is its forward(s) and the state update; its loop
(_sample_on) takes any descending grid, and eval's round trip runs it down
its Inverter's grid, reversed. The fixed-point solver in inpo.preference
binds one to a grid of one step. Every step checks the forward's input and
the new state for finiteness with ndarray.all, which runs the Python
function numpy._core._methods._all before its reduction; at these sizes,
calling np.logical_and.reduce instead made no measurable difference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# predict_noise is not called here; perfbench's span tests read it as
# inpo.sampler.predict_noise, so it stays imported until they change
from .denoiser import NoisePredictor, _as_rows, predict_noise  # noqa: F401
from .errors import InvalidArgument, NumericError
from .schedule import NoiseSchedule, check_timestep


@dataclass(frozen=True)
class SamplerConfig:
    num_steps: int
    guidance_w: float = 0.0
    t_start: int | None = None  # None means the schedule's T

    def __post_init__(self):
        if not np.isfinite(self.guidance_w):
            raise InvalidArgument(f"guidance_w must be finite, got {self.guidance_w}")

    def resolve(self, s: NoiseSchedule) -> "SamplerConfig":
        t_start = s.T if self.t_start is None else self.t_start
        if self.num_steps < 1:
            raise InvalidArgument("num_steps must be >= 1")
        if not 0 < t_start <= s.T:
            raise InvalidArgument(f"need 0 < t_start <= T, got t_start={t_start}, T={s.T}")
        return SamplerConfig(self.num_steps, self.guidance_w, t_start)


@dataclass(frozen=True)
class InversionResult:
    """Output of ddim_invert at one target timestep."""

    x0_t: np.ndarray
    delta_t: np.ndarray
    x_t: np.ndarray
    tau_t: np.ndarray


def ddim_sample(model, s: NoiseSchedule, x_start, cfg: SamplerConfig, c) -> np.ndarray:
    """Integrate from t_start down to 0 on a uniform sub-grid. Deterministic.

    ``c`` is one condition id or one per row of ``x_start``. A call binds the
    noise predictor to its grid and gathers the grid's sqrt(ab) and
    sqrt(1 - ab) from the schedule's tables once, so a step is its
    forward(s) and the update.
    """
    cfg = cfg.resolve(s)
    grid = np.rint(np.linspace(cfg.t_start, 0, cfg.num_steps + 1)).astype(np.int64)
    x = _sample_on(model, s, _as_rows(x_start), grid, cfg.guidance_w, c)
    return x[0] if np.ndim(x_start) == 1 else x


def _sample_on(model, s: NoiseSchedule, x, grid, guidance_w: float, c) -> np.ndarray:
    """ddim_sample's integration of the (rows, dim) batch ``x`` down the
    descending int64 timestep ``grid``, from grid[0] to grid[-1]."""
    eps_fn = NoisePredictor(model, guidance_w, len(x)).bind(c, grid[:-1, None])
    sq_ab, sq_1ab = s.sqrt_alpha_bar[grid].tolist(), s.sqrt_one_minus_alpha_bar[grid].tolist()
    for i in range(len(grid) - 1):
        eps = eps_fn(x, i)
        x0_hat = (x - sq_1ab[i] * eps) / sq_ab[i]
        x = sq_ab[i + 1] * x0_hat + sq_1ab[i + 1] * eps
        if not np.isfinite(x).all():
            raise NumericError(f"non-finite sample at step {i} (t={grid[i]} -> {grid[i + 1]})")
    return x


class Inverter:
    """DDIM inversion bound to (model, schedule, n, rows, guidance weight).

    Its calls share only the grid fractions linspace(0, 1, n + 1) and a
    NoisePredictor of ``rows`` rows. A call builds the (n + 1, k) grid of its
    ``t`` (k = 1, or one column per row), keeps it as ``grid``, gathers the
    grid's sqrt(ab), sqrt(1 - ab) and sigma from the schedule's tables (the
    same bits as the square roots of the gathered alpha_bar), binds the
    predictor to the grid and its conditions, and runs the update as plain
    expressions, as _sample_on does; every array it returns is fresh. The
    model may change in place between calls, as Adam changes it between an
    align call's windows. Each step still checks the forward's input and the
    state's finiteness, and ``t`` is range-checked once per call.
    """

    def __init__(self, model, s: NoiseSchedule, n: int, rows: int, guidance_w: float = 0.0):
        if n < 1:
            raise InvalidArgument("inversion step count must be >= 1")
        if not np.isfinite(guidance_w):
            raise InvalidArgument(f"inversion guidance_w must be finite, got {guidance_w}")
        self.s, self.n = s, n
        self.eps_fn = NoisePredictor(model, guidance_w, rows)
        self.frac = np.linspace(0.0, 1.0, n + 1).tolist()

    def __call__(self, x0: np.ndarray, t, c) -> InversionResult:
        """Invert the (rows, dim) batch ``x0`` up to ``t``, one timestep or
        one per row, at conditions ``c``."""
        if x0.shape != self.eps_fn.shape:
            raise InvalidArgument(f"sample batch shape {x0.shape} != {self.eps_fn.shape}")
        s, n = self.s, self.n
        tt = check_timestep(s, t, min_t=1)
        if tt.ndim > 1 or tt.size not in (1, len(x0)):
            raise InvalidArgument(f"per-row timesteps of length {tt.shape[-1]} "
                                  f"for a batch of {len(x0)} rows")
        tf = tt.reshape(-1).astype(np.float64)
        grid = np.empty((n + 1, tf.size))
        # frac * t, one grid row at a time: the broadcast frac[:, None] * tf
        # allocated 222 KB in one line at 1,024 rows, past the 100 KB that
        # test_bound_steps_allocate_no_block_of_100_kb allows
        for f, row in zip(self.frac, grid):
            np.multiply(tf, f, out=row)
        np.rint(grid, out=grid)
        self.grid = grid = grid.astype(np.int64)
        eps_fn = self.eps_fn.bind(c, grid[1:])
        sq_ab, sq_1ab, sg = (table[grid][..., None] for table in
                             (s.sqrt_alpha_bar, s.sqrt_one_minus_alpha_bar, s.sigma))

        delta = eps_fn(x0 * sq_ab[1], 0)
        x0_t = x0.copy()
        for i in range(2, n + 1):
            e = eps_fn(x0_t * sq_ab[i] + delta * sq_1ab[i], i - 1)
            x0_t = x0_t - (e - delta) * sg[i]
            delta = e
            if not np.isfinite(x0_t).all():
                raise NumericError(f"non-finite inversion state at step {i} of {n}")

        # grid[n] is t: the latent sqrt(ab_t) * x0_t + sqrt(1 - ab_t) * delta_t
        # and the target (x0_t - x0) / sigma_t + delta_t
        x_t = sq_ab[n] * x0_t + sq_1ab[n] * delta
        tau = (x0_t - x0) / sg[n] + delta
        return InversionResult(x0_t=x0_t, delta_t=delta, x_t=x_t, tau_t=tau)


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
    A one-off call of an Inverter sized to the batch, so a step is one
    forward and the update.
    """
    x0a = _as_rows(x0)
    res = Inverter(model, s, n, len(x0a), guidance_w_inv)(x0a, t_target, c)
    if np.ndim(x0) == 1:
        return InversionResult(*(a[0] for a in (res.x0_t, res.delta_t, res.x_t, res.tau_t)))
    return res

