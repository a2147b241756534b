"""Training objectives.

Three losses share one pairwise core:

  - the standard denoising objective (pretraining, SFT baseline),
  - the forward-noising preference loss (the DPO baseline), and
  - the inversion preference loss, which regresses the model toward the
    target tau = (x0_t - x0) / sigma_t + delta_t at latents recovered by
    inversion instead of drawn from the forward process.

All preference losses take the form -log sigmoid(-beta * w(t) * D) with D the
difference of four squared prediction errors (winner/loser under the trained
and the frozen reference model). The pair head stacks winners over losers,
so each model's two errors come from one forward, one difference and one
row sum, with one finiteness check per model that names the offending term
only on failure. The reference must be plain parameters and never receives
gradient.

Each head has one closed-form value-and-gradient core, _pair_step on a
stacked (2B, dim) batch and _sft_step for the denoising head, which the
training windows call on their own draws, checked once per training call
rather than per step, so there is one copy of each loss: it embeds the
batch's timesteps once into a StepWorkspace (StepWorkspace.bind_step), runs
the trained forward, and for the pair head the reference forward, in the
workspace's kept buffers, computes the value and the gradient with respect
to the network's output as plain numpy expressions, and calls
denoiser.eps_backward, which fills and returns the workspace's gradient.
The order of operations (d + d, not 2 * d) keeps aligned parameters
byte-stable. A step's sums and checks call the ufuncs' reductions
(np.add.reduce, np.logical_and.reduce) directly, not the ndarray methods,
which first run a Python function in numpy._core._methods; a sum divided by
its count has the bits of the mean. make_targets checks its arguments, then
runs _targets, which the pair window calls with its inverter.
pair_loss_terms and sft_terms are the same heads on plain numpy values, or,
on tape parameters, one tape node each whose VJP is the same
output-gradient helper; the tape (denoiser.value_and_grad) is the
reference the tests hold the closed-form cores to.

Delta strategies decide how the noise estimate paired with a clean sample is
produced: "inversion" runs the sampler's inversion, "gaussian" draws i.i.d.
noise (which reduces the loss exactly to the DPO baseline), and
"fixed_point" solves the self-consistency equation for the noise directly by
iteration. The last two noise the clean sample forward with their estimate
(schedule._noise, forward_diffuse's unchecked step) and regress onto the
estimate itself.

Every strategy's latent is x_t = sqrt(ab_t) * x0_t + sqrt(1 - ab_t) * delta_t
and its target tau = (x0_t - x0) / sigma_t + delta_t (x0_t = x0 for the
noising strategies), so for any noise prediction eps at x_t, with
x0_hat = (x_t - sqrt(1 - ab_t) * eps) / sqrt(ab_t) its denoised estimate,

    tau - eps = (x0_hat - x0) / sigma_t.

A pair loss's squared errors therefore rank how far each model's denoised
estimate at the latent lands from the clean sample: under inversion, the
drift of the inversion round trip. An exact fixed point makes the trained
model's side zero, so only the solver's residual is left to train on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Var
from .denoiser import (
    DenoiserParams,
    NoisePredictor,
    StepWorkspace,
    _as_rows,
    _cond_rows,
    _per_row,
    eps_backward,
    eps_forward,
)
from .errors import InvalidArgument, NumericError
from .sampler import ddim_invert
from .schedule import NoiseSchedule, _noise, check_timestep

DELTA_KINDS = ("inversion", "gaussian", "fixed_point")


@dataclass(frozen=True)
class DeltaStrategy:
    kind: str
    n: int = 10
    guidance_w_inv: float = 0.0
    max_iters: int = 50
    tol: float = 1e-8

    def __post_init__(self):
        if self.kind not in DELTA_KINDS:
            raise InvalidArgument(f"unknown delta strategy {self.kind!r}")
        if self.n < 1:
            raise InvalidArgument("inversion step count must be >= 1")
        if self.max_iters < 1:
            raise InvalidArgument("max_iters must be >= 1")
        if not np.isfinite(self.guidance_w_inv):
            raise InvalidArgument(f"guidance_w_inv must be finite, got {self.guidance_w_inv}")
        if not self.tol > 0:
            raise InvalidArgument(f"tol must be positive, got {self.tol}")


def sft_terms(model, s: NoiseSchedule, x_t, t, c, rows, eps, ws=None):
    """Body of the denoising objective; mean over the batch.

    On TapeParams, one node: row gradient (g / B) * w(t) * (d + d), d = eps_hat - eps.
    ``t``, one timestep or one per row, must lie in [0, T].
    The condition ids ``c`` are not read: ``rows`` already resolves them.
    ``ws`` is the forward's StepWorkspace on TapeParams (see eps_forward).
    """
    t = _per_row(check_timestep(s, t), len(x_t), "timesteps")
    out = eps_forward(model, x_t, t, rows, ws=ws)
    taped = isinstance(out, Var)
    d = (out.data if taped else out) - eps
    w = s.loss_weight[t]
    value = _sft_value(d, w)
    if not taped:
        return value
    return Var(value, out, lambda g: _sft_output_grad(g, w, d))


def _sft_value(d, w):
    """The weighted mean squared error of the prediction errors ``d``: the
    row sums of d * d times w(t), summed and divided by the row count (the
    bits of their mean)."""
    per = np.add.reduce(d * d, axis=1) * w
    return np.add.reduce(per) / len(per)


def _sft_output_grad(g, w, d):
    """The denoising head's gradient with respect to the prediction, for an
    upstream gradient ``g``: (g / B) * w(t) * (d + d) per row."""
    geps = w[:, None] * (g / len(d)) * d
    geps += geps
    return geps


def _check_loss(value) -> None:
    if not math.isfinite(value):
        raise NumericError(f"loss is non-finite: {float(value)!r}")


def _sft_step(model: DenoiserParams, s: NoiseSchedule, x_t, t, rows, eps, ws: StepWorkspace):
    """The denoising objective of sft_terms and its gradient, in closed form,
    unchecked: ``t`` and ``rows`` are the batch's per-row timesteps, which
    ``ws`` (a StepWorkspace of the batch's rows) must be able to embed, and
    embedding rows in [0, num_conditions]. The denoising window calls it on
    its draws. Returns (value, ws.grad); a non-finite value raises
    NumericError before the backward."""
    ws.bind_step(t)
    d = eps_forward(model, x_t, 0, rows, ws=ws.bound) - eps
    w = s.loss_weight[t]
    value = _sft_value(d, w)
    _check_loss(value)
    return float(value), eps_backward(model, _sft_output_grad(1.0, w, d), rows, ws)


def solve_delta_fixed_point(model, s: NoiseSchedule, x0_t, t, c, cfg: DeltaStrategy, rng):
    """Iteration for the noise consistent with a denoised estimate.

    Iterates delta <- eps_hat(lift(delta)) from a standard-normal start, per
    row, freezing rows whose residual ||delta - eps_hat|| drops to tol.
    Returns (delta, converged, residual).
    Every iteration evaluates at the same timesteps, so the noise predictor
    is bound to a grid of one step and sqrt(ab_t) * x0_t is computed once.
    """
    x0a, squeeze = _as_rows(x0_t), np.ndim(x0_t) == 1
    B = x0a.shape[0]
    tt = np.atleast_1d(check_timestep(s, t, min_t=1))[None]
    eps_fn = NoisePredictor(model, 1.0, B).bind(c, tt)
    sq_1ab = s.sqrt_one_minus_alpha_bar[tt.T]
    lift0 = s.sqrt_alpha_bar[tt.T] * x0a

    delta = rng.standard_normal(x0a.shape)
    converged = np.zeros(B, dtype=bool)
    resid = np.full(B, np.inf)
    for k in range(cfg.max_iters):
        eps = eps_fn(lift0 + sq_1ab * delta, 0)
        r = np.linalg.norm(delta - eps, axis=1)
        resid = np.where(converged, resid, r)
        converged |= r <= cfg.tol
        if converged.all():
            break
        delta = np.where(converged[:, None], delta, eps)
        if not np.isfinite(delta).all():
            raise NumericError(f"non-finite fixed-point iterate at iteration {k}")
    if not converged.all():
        eps = eps_fn(lift0 + sq_1ab * delta, 0)
        r = np.linalg.norm(delta - eps, axis=1)
        resid = np.where(converged, resid, r)
    if squeeze:
        return delta[0], bool(converged[0]), float(resid[0])
    return delta, converged, resid


def make_targets(model, s: NoiseSchedule, x0, t, c, strategy: DeltaStrategy, rng):
    """Produce the (latent, regression target) pair for one clean sample batch.

    ``t`` and ``c`` are one value or one per row, whichever the strategy
    reads; the inversion is a one-off ddim_invert call.
    """
    t = check_timestep(s, t, min_t=1)
    x0 = np.asarray(x0, dtype=np.float64)
    n = _as_rows(x0).shape[0]
    _per_row(t, n, "timesteps")
    _per_row(c, n, "condition ids")
    return _targets(model, s, x0, t, c, strategy, rng)


def _targets(model, s: NoiseSchedule, x0, t, c, strategy: DeltaStrategy, rng, inverter=None):
    """make_targets' arithmetic on checked arguments; the pair window calls
    it on its draws, with its Inverter, bound to ``model`` and the
    strategy's n and guidance weight and sized to the batch. The gaussian
    and fixed_point strategies noise x0 with their noise estimate, which is
    also the target; the gaussian one draws it as rng.standard_normal of
    x0's shape."""
    if strategy.kind == "inversion":
        res = inverter(x0, t, c) if inverter else ddim_invert(model, s, x0, t, strategy.n, c,
                                                              strategy.guidance_w_inv)
        return res.x_t, res.tau_t
    if strategy.kind == "gaussian":
        eps = rng.standard_normal(x0.shape)
    else:
        eps, _, _ = solve_delta_fixed_point(model, s, x0, t, c, strategy, rng)
    return _noise(s, x0, t, eps), eps


def _check_ref(theta, ref) -> None:
    """The reference must be plain DenoiserParams, and, since it is
    evaluated at the trained model's embedding rows, share the trained
    model's architecture."""
    if not isinstance(ref, DenoiserParams):
        raise InvalidArgument(f"reference model must be DenoiserParams, got {type(ref)}")
    if ref.arch != theta.arch:
        raise InvalidArgument(
            f"reference architecture {ref.arch} differs from the trained model's {theta.arch}")


_TERM_NAMES = ("term_w_theta", "term_w_ref", "term_l_theta", "term_l_ref")


def pair_loss_terms(theta, ref, s: NoiseSchedule, x_tw, tau_w, x_tl, tau_l, t, c, beta):
    """Batched pairwise loss pieces.

    ``theta`` may be DenoiserParams or TapeParams; ``ref`` must be plain
    DenoiserParams. Winners and losers are stacked into one (2B, dim) batch,
    winners first, so each model runs one forward, one difference from the
    targets and one squared-error sum. Returns a dict of per-pair arrays plus
    the scalar mean total, on TapeParams one node: for d = target -
    prediction and g_w = (g / B) * sigmoid(-arg) * beta * w(t), winner rows
    get -g_w * (d + d), losers g_w * (d + d). ``t`` must lie in [1, T].
    """
    _check_ref(theta, ref)
    x_tw, x_tl = _as_rows(x_tw), _as_rows(x_tl)
    B = x_tw.shape[0]
    t = _per_row(check_timestep(s, t, min_t=1), B, "timesteps")
    rows = _cond_rows(_per_row(c, B, "condition ids"), theta.arch.num_conditions)
    x_t = np.vstack([x_tw, x_tl])
    tau = np.vstack([_as_rows(tau_w), _as_rows(tau_l)])
    t_stack = np.concatenate([t, t])
    rows_stack = np.concatenate([rows, rows])

    out = eps_forward(theta, x_t, t_stack, rows_stack)
    eps_rf = eps_forward(ref, x_t, t_stack, rows_stack)
    taped = isinstance(out, Var)
    scale = -(beta * s.loss_weight[t])
    d_th, term_th, term_rf, arg = _pair_terms(tau, out.data if taped else out, eps_rf, scale)
    totals = np.logaddexp(0.0, -arg)
    mean_total = totals.mean()
    if taped:
        mean_total = Var(mean_total, out, lambda g: _pair_output_grad(g, arg, scale, d_th))
    return {
        "term_w_theta": term_th[:B],
        "term_w_ref": term_rf[:B],
        "term_l_theta": term_th[B:],
        "term_l_ref": term_rf[B:],
        "sigmoid_arg": arg,
        "totals": totals,
        "mean_total": mean_total,
    }


def _pair_step(theta: DenoiserParams, ref: DenoiserParams, s: NoiseSchedule, x_t, tau, t, rows,
               beta, ws: StepWorkspace, aux=None):
    """The mean pairwise loss of pair_loss_terms and its gradient, in closed
    form, unchecked, on a stacked (2B, dim) batch of latents ``x_t`` and
    targets ``tau``, winners first: rows i and B + i are one pair's winner
    and loser. ``t`` and ``rows`` are the stacked batch's per-row timesteps,
    in [1, T] and embeddable by ``ws``, and embedding rows in [0,
    num_conditions]; the loss weight is read at the winners' timesteps.
    ``ref`` must pass _check_ref. The pair window calls it on its draws.

    The time embeddings are gathered once for both models (bind_step), the
    trained forward runs in ``ws.acts`` and the reference's in ``ws.ref``,
    ``ws`` being a StepWorkspace of 2B rows, and eps_backward fills its
    gradient. ``aux``, a dict if given, receives the per-pair "sigmoid_arg"
    before the loss is checked, so a caller can name the pair behind a
    non-finite loss. Returns (value, ws.grad); a non-finite term or value
    raises NumericError before the backward.
    """
    B = len(x_t) // 2
    ws.bind_step(t)
    out = eps_forward(theta, x_t, 0, rows, ws=ws.bound)
    eps_rf = eps_forward(ref, x_t, 0, rows, ws=ws.bound_ref)
    # -(beta * w(t)) in one ufunc; negation is exact
    scale = s.loss_weight[t[:B]] * -beta
    d_th, _, _, arg = _pair_terms(tau, out, eps_rf, scale)
    if aux is not None:
        aux["sigmoid_arg"] = arg
    # the sum over B has the bits of the mean
    value = np.add.reduce(np.logaddexp(0.0, -arg)) / B
    _check_loss(value)
    return float(value), eps_backward(theta, _pair_output_grad(1.0, arg, scale, d_th), rows, ws)


def _pair_terms(tau, eps_th, eps_rf, scale):
    """The stacked batch's trained-model errors d = tau - prediction, both
    models' squared errors per row and the per-pair loss argument, for the
    per-pair ``scale`` -(beta * w(t)); a non-finite squared error raises
    NumericError naming its term."""
    B = len(scale)
    d_th, d_rf = tau - eps_th, tau - eps_rf
    term_th, term_rf = np.add.reduce(d_th * d_th, axis=1), np.add.reduce(d_rf * d_rf, axis=1)
    if not (np.logical_and.reduce(np.isfinite(term_th))
            and np.logical_and.reduce(np.isfinite(term_rf))):
        _raise_nonfinite_term(term_th, term_rf, B)
    arg = (term_th[:B] - term_rf[:B] - term_th[B:] + term_rf[B:]) * scale
    return d_th, term_th, term_rf, arg


def _pair_output_grad(g, arg, scale, d_th):
    """The pair head's gradient with respect to the stacked prediction, for
    an upstream gradient ``g``: with g_w = (g / B) * sigmoid(-arg) * beta *
    w(t), winner rows get -g_w * (d + d) and losers g_w * (d + d), plus 0.0.
    ``scale`` is -(beta * w(t)), so the column [-g_w; g_w] is
    (g / B) * sigmoid(-arg) * scale over its negation. Negation is exact, so
    the bits are those of -(p + p) + 0.0 with p = [g_w; -g_w] * d."""
    # -g_w: sigmoid(-arg), the slope of softplus at -arg, in tanh form
    neg_gw = (np.tanh(arg * -0.5) + 1.0) * 0.5 * (g / len(arg)) * scale
    geps = np.concatenate([neg_gw, -neg_gw])[:, None] * d_th
    geps += geps
    # + 0.0 turns -0.0 into 0.0, as accumulating into zeros did
    geps += 0.0
    return geps


def _raise_nonfinite_term(term_th, term_rf, B):
    """Name the first non-finite term of winners then losers, trained model
    before reference."""
    halves = (term_th[:B], term_rf[:B], term_th[B:], term_rf[B:])
    for name, term in zip(_TERM_NAMES, halves):
        if not np.isfinite(term).all():
            raise NumericError(f"{name} is non-finite")


def implicit_reward(p, ref, s, x0, c, t_draws, strategy: DeltaStrategy, beta, rng) -> float:
    """Monte Carlo estimate of the preference reward of one sample, up to the
    per-timestep normalizer that cancels when rewards are compared."""
    _check_ref(p, ref)
    if np.ndim(c) != 0:
        raise InvalidArgument(
            f"implicit_reward takes one condition id, got an array of shape {np.shape(c)}")
    t_draws = np.asarray(t_draws)
    if t_draws.size == 0:
        raise InvalidArgument("t_draws must be nonempty")
    t = check_timestep(s, t_draws, min_t=1)
    x0 = np.asarray(x0, dtype=np.float64)
    X0 = np.tile(x0, (t.size, 1))
    cc = np.full(t.size, c)
    rows = _cond_rows(cc, p.arch.num_conditions)
    x_t, tau = make_targets(p, s, X0, t, cc, strategy, rng)
    eps_p = eps_forward(p, x_t, t, rows)
    eps_r = eps_forward(ref, x_t, t, rows)
    term_p = ((tau - eps_p) ** 2).sum(axis=1)
    term_r = ((tau - eps_r) ** 2).sum(axis=1)
    vals = -beta * s.loss_weight[t] * (term_p - term_r)
    return float(vals.mean())
