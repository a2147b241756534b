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

Inversion has one code path, the Inverter: bound to (model, schedule, n,
rows, guidance weight), it holds its grid, the grid's sqrt(ab), sqrt(1 - ab)
and sigma (gathered from the schedule's tables), a NoisePredictor and the
update's buffers, and each call rebinds them to its timesteps and
conditions. align's pair window builds one per call and hands it to the
targets of every window (preference._targets); ddim_invert is a one-off
Inverter call. ddim_sample binds a NoisePredictor once per call, so a step
is its forward(s) and the state update; the fixed-point solver in
inpo.preference binds one to a grid of one step. Every step checks the
forward's input and the new state for finiteness with ndarray.all, which
runs the Python function numpy._core._methods._all before its reduction; at
these sizes, calling np.logical_and.reduce instead made no measurable
difference.
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
    t_end: int = 0

    def __post_init__(self):
        if not np.isfinite(self.guidance_w):
            raise InvalidArgument(f"guidance_w must be finite, got {self.guidance_w}")

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


def ddim_sample(model, s: NoiseSchedule, x_start, cfg: SamplerConfig, c) -> np.ndarray:
    """Integrate from t_start down to t_end on a uniform sub-grid. Deterministic.

    ``c`` is one condition id or one per row of ``x_start``. A call binds the
    noise predictor to its grid and gathers the grid's sqrt(ab) and
    sqrt(1 - ab) from the schedule's tables once, so a step is its
    forward(s) and the update.
    """
    cfg = cfg.resolve(s)
    x = _as_rows(x_start)
    grid = np.rint(np.linspace(cfg.t_start, cfg.t_end, cfg.num_steps + 1)).astype(np.int64)
    eps_fn = NoisePredictor(model, cfg.guidance_w, len(x)).bind(c, grid[:-1, None])
    sq_ab, sq_1ab = s.sqrt_alpha_bar[grid].tolist(), s.sqrt_one_minus_alpha_bar[grid].tolist()
    for i in range(cfg.num_steps):
        eps = eps_fn(x, i)
        x0_hat = (x - sq_1ab[i] * eps) / sq_ab[i]
        x = sq_ab[i + 1] * x0_hat + sq_1ab[i + 1] * eps
        if not np.isfinite(x).all():
            raise NumericError(f"non-finite sample at step {i} (t={grid[i]} -> {grid[i + 1]})")
    return x[0] if np.ndim(x_start) == 1 else x


class Inverter:
    """DDIM inversion bound to (model, schedule, n, rows, guidance weight).

    It holds what its calls share: the grid fractions linspace(0, 1, n + 1),
    a float row for the timesteps,
    the (n + 1, rows) grid, its sqrt(ab), sqrt(1 - ab) and sigma (gathered
    from the schedule's tables, the same bits as the square roots of the
    gathered alpha_bar), a NoisePredictor of ``rows`` rows, and the running
    estimate, lift and update buffers, which each step writes in place. A
    call binds the grid of its ``t`` and its conditions, so only buffers and
    shapes outlive a call; the model may change in place between calls, as
    Adam changes it between an align call's windows. Each step still checks
    the forward's input and the state's finiteness, and ``t`` is
    range-checked once per call.
    """

    def __init__(self, model, s: NoiseSchedule, n: int, rows: int, guidance_w: float = 0.0):
        if n < 1:
            raise InvalidArgument("inversion step count must be >= 1")
        if not np.isfinite(guidance_w):
            raise InvalidArgument(f"inversion guidance_w must be finite, got {guidance_w}")
        self.model, self.s, self.n, self.rows, self.guidance_w = model, s, n, rows, guidance_w
        self.eps_fn = NoisePredictor(model, guidance_w, rows)
        self.frac = np.linspace(0.0, 1.0, n + 1).tolist()
        self.tt = np.empty(rows)
        self.tgrid = np.empty((n + 1, rows))
        self.grid = np.empty((n + 1, rows), dtype=np.int64)
        self.sq_ab, self.sq_1ab, self.sg = (np.empty((n + 1, rows)) for _ in range(3))
        shape = self.eps_fn.shape
        self.x0_cur, self.lift, self.upd = (np.empty(shape) for _ in range(3))

    def __call__(self, x0: np.ndarray, t, c) -> InversionResult:
        """Invert the (rows, dim) batch ``x0`` up to ``t``, one timestep or
        one per row, at conditions ``c``. Only x_t and tau_t are fresh
        arrays; x0_t is the inverter's buffer until its next call."""
        if x0.shape != self.x0_cur.shape:
            raise InvalidArgument(f"sample batch shape {x0.shape} != {self.x0_cur.shape}")
        s, n = self.s, self.n
        tt = check_timestep(s, t, min_t=1)
        if tt.ndim > 1 or tt.size not in (1, self.rows):
            raise InvalidArgument(f"per-row timesteps of length {tt.shape[-1]} "
                                  f"for a batch of {self.rows} rows")
        k = tt.size  # one grid column per target: 1 or per row
        tgrid, grid, tf = self.tgrid[:, :k], self.grid[:, :k], self.tt[:k]
        # frac * t, one grid row at a time: a broadcast product would buffer
        # its operands, and an int64 operand a cast copy too
        np.copyto(tf, tt)
        for f, row in zip(self.frac, tgrid):
            np.multiply(tf, f, out=row)
        np.rint(tgrid, out=tgrid)
        np.copyto(grid, tgrid, casting="unsafe")
        eps_fn = self.eps_fn.bind(c, grid[1:])
        # the grid lies in [0, T], so mode="clip" never clips; unlike the
        # default mode it writes straight into ``out``
        sq_ab, sq_1ab, sg = (
            table.take(grid, out=buf[:, :k], mode="clip")[..., None]
            for table, buf in ((s.sqrt_alpha_bar, self.sq_ab),
                               (s.sqrt_one_minus_alpha_bar, self.sq_1ab), (s.sigma, self.sg)))
        x0_cur, lift, upd = self.x0_cur, self.lift, self.upd

        delta = eps_fn(np.multiply(x0, sq_ab[1], out=lift), 0)
        np.copyto(x0_cur, x0)
        for i in range(2, n + 1):
            np.multiply(x0_cur, sq_ab[i], out=lift)
            lift += np.multiply(delta, sq_1ab[i], out=upd)
            e = eps_fn(lift, i - 1)
            np.subtract(e, delta, out=upd)
            upd *= sg[i]
            x0_cur -= upd
            delta = e
            if not np.isfinite(x0_cur).all():
                raise NumericError(f"non-finite inversion state at step {i} of {n}")

        # grid[n] is t: the latent sqrt(ab_t) * x0_t + sqrt(1 - ab_t) * delta_t
        # and the target (x0_t - x0) / sigma_t + delta_t
        x_t = sq_ab[n] * x0_cur + sq_1ab[n] * delta
        tau = (x0_cur - x0) / sg[n] + delta
        return InversionResult(x0_t=x0_cur, delta_t=delta, x_t=x_t, tau_t=tau)


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

