"""Shared fixtures: probe models, closed-form oracles (the single-step
denoised estimate among them), the per-pair record and its stacking into a
PairTable, the per-pair and per-batch loss helpers, the RK4 reference
integrator, the per-step sampler loops, the per-record
pair-file reader and writer and the csv.writer win-rate table as byte
oracles, and the slow session-scoped trained models used by the end-to-end
tests."""
import csv
import io
from dataclasses import dataclass

import numpy as np
import pytest

from inpo.denoiser import (
    NULL_CONDITION,
    DenoiserArch,
    DenoiserParams,
    _as_rows,
    _cond_rows,
    _per_row,
    eps_forward,
    predict_noise,
)
import json
import math

from inpo.data import PAIR_SCHEMA_VERSION, PairTable, score
from inpo.errors import InvalidArgument, NumericError, PairParseError, VersionError
from inpo.preference import DeltaStrategy, make_targets, pair_loss_terms, sft_terms
from inpo.sampler import InversionResult, ddim_sample
from inpo.schedule import check_timestep, forward_diffuse, make_schedule


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
    """Central differences of a plain-numpy scalar loss over every parameter,
    as DenoiserParams laid out like value_and_grad's gradient."""
    vec = params.vec
    g = np.zeros_like(vec)
    for i in range(vec.size):
        old = vec[i]
        vec[i] = old + h
        hi = loss_np(params)
        vec[i] = old - h
        lo = loss_np(params)
        vec[i] = old
        g[i] = (hi - lo) / (2 * h)
    return DenoiserParams(params.arch, g)


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


def sft_loss(model, s, batch, t_draws, eps_draws) -> float:
    """Mean over the batch of w(t) * ||eps_hat(noised x0, t, c) - eps||^2,
    through the public denoising head."""
    x0, c = batch
    x0 = _as_rows(x0)
    if x0.shape[0] == 0:
        raise InvalidArgument("empty batch")
    t = _per_row(t_draws, x0.shape[0], "timesteps")
    eps = _as_rows(eps_draws)
    if eps.shape != x0.shape:
        raise InvalidArgument("eps draws must be congruent with the batch")
    c = _per_row(c, x0.shape[0], "condition ids")
    rows = _cond_rows(c, model.arch.num_conditions)
    x_t = forward_diffuse(s, x0, t, eps)
    return float(sft_terms(model, s, x_t, t, c, rows, eps))


@dataclass(frozen=True)
class PreferencePair:
    """One preference pair as a record: the per-pair form the loss helpers
    take and the oracles build, which pair_table stacks into the PairTable
    the package takes."""

    condition: int
    winner: np.ndarray
    loser: np.ndarray
    reward_w: float
    reward_l: float
    seed: int
    tie: bool = False


def pair_table(pairs) -> PairTable:
    """The records ``pairs`` stacked into a PairTable, one row each in
    order; no records give a table of dim 0, as load_pairs returns."""
    if not pairs:
        return PairTable(np.empty(0, np.int64), np.empty((0, 0)), np.empty((0, 0)), np.empty(0),
                         np.empty(0), np.empty(0, np.int64), np.empty(0, bool))
    return PairTable(
        condition=np.array([p.condition for p in pairs], dtype=np.int64),
        winner=np.stack([p.winner for p in pairs], dtype=np.float64),
        loser=np.stack([p.loser for p in pairs], dtype=np.float64),
        reward_w=np.array([p.reward_w for p in pairs], dtype=np.float64),
        reward_l=np.array([p.reward_l for p in pairs], dtype=np.float64),
        seed=np.array([p.seed for p in pairs], dtype=np.int64),
        tie=np.array([p.tie for p in pairs], dtype=bool),
    )


@dataclass(frozen=True)
class LossBreakdown:
    """One pair's pair-loss pieces at one timestep."""

    total: float
    sigmoid_arg: float
    term_w_theta: float
    term_w_ref: float
    term_l_theta: float
    term_l_ref: float
    t: int


def _breakdown(terms, t) -> LossBreakdown:
    return LossBreakdown(
        total=float(terms["totals"][0]),
        sigmoid_arg=float(terms["sigmoid_arg"][0]),
        term_w_theta=float(terms["term_w_theta"][0]),
        term_w_ref=float(terms["term_w_ref"][0]),
        term_l_theta=float(terms["term_l_theta"][0]),
        term_l_ref=float(terms["term_l_ref"][0]),
        t=int(t),
    )


def inpo_loss(p, ref, s, pair, t, strategy: DeltaStrategy, beta, rng) -> LossBreakdown:
    """Inversion preference loss for one pair at one timestep.

    Latent/target construction uses the trained parameters and is treated as
    a sampled constant: no gradient flows through it.
    """
    if beta < 0:
        raise InvalidArgument("beta must be >= 0")
    t = int(check_timestep(s, t, min_t=1))
    c = pair.condition
    x_tw, tau_w = make_targets(p, s, pair.winner, t, c, strategy, rng)
    x_tl, tau_l = make_targets(p, s, pair.loser, t, c, strategy, rng)
    terms = pair_loss_terms(p, ref, s, x_tw, tau_w, x_tl, tau_l, t, c, beta)
    return _breakdown(terms, t)


def dpo_diffusion_loss(p, ref, s, pair, t, eps_w, eps_l, beta) -> LossBreakdown:
    """Forward-noising preference loss: latents from the forward process and
    targets equal to the drawn noise. Baseline and reduction oracle: it
    builds its latents itself, not through make_targets."""
    if beta < 0:
        raise InvalidArgument("beta must be >= 0")
    t = int(check_timestep(s, t, min_t=1))
    c = pair.condition
    x_tw = forward_diffuse(s, np.asarray(pair.winner, float), t, np.asarray(eps_w, float))
    x_tl = forward_diffuse(s, np.asarray(pair.loser, float), t, np.asarray(eps_l, float))
    terms = pair_loss_terms(p, ref, s, x_tw, eps_w, x_tl, eps_l, t, c, beta)
    return _breakdown(terms, t)


def max_rel_err(ad, fd):
    """Largest elementwise |ad - fd| / (|fd| + 1e-8) over two gradients."""
    return float(np.max(np.abs(ad.vec - fd.vec) / (np.abs(fd.vec) + 1e-8)))


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


def oracle_noise_fn(model, c, guidance_w, n):
    """Per-step noise function eps(x, t) with nothing bound across steps:
    every call broadcasts t to the rows and runs unbound forwards, which
    embed t afresh. The guidance arithmetic is predict_noise's."""
    cv = np.broadcast_to(np.asarray(c), (n,))
    K = model.arch.num_conditions
    rows = np.where(cv == NULL_CONDITION, K, cv)
    null_rows = np.full(n, K)

    def fwd(x, t, at_rows):
        return eps_forward(model, x, np.broadcast_to(t, (n,)), at_rows)

    if guidance_w == 0.0 or np.all(cv == NULL_CONDITION):
        return lambda x, t: fwd(x, t, null_rows)
    if guidance_w == 1.0:
        return lambda x, t: fwd(x, t, rows)

    def guided(x, t):
        eps_u = fwd(x, t, null_rows)
        eps_c = fwd(x, t, rows)
        return eps_u + guidance_w * (eps_c - eps_u)

    return guided


def _oracle_rows(x):
    x = np.asarray(x, dtype=np.float64)
    return (x[None, :], True) if x.ndim == 1 else (x, False)


def oracle_ddim_sample(model, s, x_start, cfg, c):
    """ddim_sample's loop with every coefficient looked up per step; byte
    oracle for the bound sampler."""
    cfg = cfg.resolve(s)
    x, squeeze = _oracle_rows(x_start)
    grid = np.rint(np.linspace(cfg.t_start, 0, cfg.num_steps + 1)).astype(np.int64)
    x = oracle_sample_on(model, s, x, grid, cfg.guidance_w, c)
    return x[0] if squeeze else x


def oracle_sample_on(model, s, x, grid, guidance_w, c):
    """The DDIM update of the (rows, dim) batch ``x`` down the descending
    timestep ``grid``, with every coefficient looked up per step."""
    eps_fn = oracle_noise_fn(model, c, guidance_w, x.shape[0])
    for t_cur, t_next in zip(grid[:-1], grid[1:]):
        eps = eps_fn(x, t_cur)
        ab_c = s.alpha_bar[t_cur]
        ab_n = s.alpha_bar[t_next]
        x0_hat = (x - np.sqrt(1.0 - ab_c) * eps) / np.sqrt(ab_c)
        x = np.sqrt(ab_n) * x0_hat + np.sqrt(1.0 - ab_n) * eps
    return x


def oracle_ddim_invert(model, s, x0, t_target, n, c, guidance_w_inv=0.0):
    """ddim_invert's loop on a per-row grid with every coefficient looked up
    per step; byte oracle for the bound inversion."""
    x0a, squeeze = _oracle_rows(x0)
    B = x0a.shape[0]
    tt = np.broadcast_to(np.asarray(check_timestep(s, t_target, min_t=1)), (B,))
    grid = np.rint(np.linspace(0.0, 1.0, n + 1)[None, :] * tt[:, None]).astype(np.int64)
    eps_fn = oracle_noise_fn(model, c, guidance_w_inv, B)
    t1 = grid[:, 1]
    delta = eps_fn(np.sqrt(s.alpha_bar[t1])[:, None] * x0a, t1)
    x0_cur = x0a.copy()
    for i in range(2, n + 1):
        ti = grid[:, i]
        ab = s.alpha_bar[ti][:, None]
        sg = s.sigma[ti][:, None]
        lift = np.sqrt(ab) * x0_cur + np.sqrt(1.0 - ab) * delta
        e = eps_fn(lift, ti)
        x0_cur = x0_cur - sg * (e - delta)
        delta = e
    ab, sg = s.alpha_bar[tt][:, None], s.sigma[tt][:, None]
    x_t = np.sqrt(ab) * x0_cur + np.sqrt(1.0 - ab) * delta
    tau = (x0_cur - x0a) / sg + delta
    if squeeze:
        x0_cur, delta, x_t, tau = x0_cur[0], delta[0], x_t[0], tau[0]
    return InversionResult(x0_t=x0_cur, delta_t=delta, x_t=x_t, tau_t=tau)


def oracle_initial_variable(model, s, x_t, t, c, guidance_w=0.0):
    """The single-step denoised estimate x_t / sqrt(ab_t) - sigma_t * eps_hat,
    ``t`` one timestep in [1, T] or one per row."""
    x, squeeze = _oracle_rows(x_t)
    tt = check_timestep(s, t, min_t=1)
    ab, sg = s.alpha_bar[tt], s.sigma[tt]
    if tt.ndim == 1:
        ab, sg = ab[:, None], sg[:, None]
    out = x / np.sqrt(ab) - sg * predict_noise(model, x, tt, c, guidance_w)
    return out[0] if squeeze else out


def oracle_fixed_point(model, s, x0_t, t, c, cfg, rng):
    """solve_delta_fixed_point's loop with the lift recomputed in full every
    iteration; byte oracle for the bound solver."""
    x0a, squeeze = _oracle_rows(x0_t)
    B = x0a.shape[0]
    tt = np.broadcast_to(np.asarray(check_timestep(s, t, min_t=1)), (B,))
    ab = s.alpha_bar[tt][:, None]
    sq_ab, sq_1ab = np.sqrt(ab), np.sqrt(1.0 - ab)
    eps_fn = oracle_noise_fn(model, c, 1.0, B)
    delta = rng.standard_normal(x0a.shape)
    converged = np.zeros(B, dtype=bool)
    resid = np.full(B, np.inf)
    for _ in range(cfg.max_iters):
        eps = eps_fn(sq_ab * x0a + sq_1ab * delta, tt)
        r = np.linalg.norm(delta - eps, axis=1)
        resid = np.where(converged, resid, r)
        converged |= r <= cfg.tol
        if converged.all():
            break
        delta = np.where(converged[:, None], delta, eps)
    if not converged.all():
        eps = eps_fn(sq_ab * x0a + sq_1ab * delta, tt)
        r = np.linalg.norm(delta - eps, axis=1)
        resid = np.where(converged, resid, r)
    if squeeze:
        return delta[0], bool(converged[0]), float(resid[0])
    return delta, converged, resid



def oracle_make_preference_pairs(model, s, spec, conditions, pairs_per_condition, cfg, seed):
    """make_preference_pairs with one ddim_sample and one score call per
    condition and one record per pair, stacked into a table; byte oracle
    for its single call over every condition."""
    streams = np.random.SeedSequence([int(seed), 0x9A12]).spawn(len(conditions))
    pairs = []
    for c, stream in zip(conditions, streams):
        z = np.random.default_rng(stream).standard_normal((2 * pairs_per_condition,
                                                           model.arch.input_dim))
        x = ddim_sample(model, s, z, cfg, c)
        r = score(spec, x, c).tolist()
        for k in range(0, len(x), 2):
            (xa, ra), (xb, rb) = (x[k], r[k]), (x[k + 1], r[k + 1])
            if rb > ra:
                xa, xb, ra, rb = xb, xa, rb, ra
            pairs.append(PreferencePair(int(c), xa, xb, ra, rb, int(seed), ra == rb))
    return pair_table(pairs)

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def oracle_load_pairs(path, num_conditions=None, input_dim=None):
    """load_pairs as one loop over the lines, each record decoded, converted
    into a PreferencePair (numpy winner and loser, float rewards) and checked
    on its own before the next, the records stacked into an external table
    at the end; byte and error oracle for the loader, which keeps Python
    values per record and builds its columns at the end.

    A header without a dim takes the first record's, a header dim must be a
    positive integer and the schema version the integer 1; samples and
    rewards must be finite JSON numbers, a condition and a seed JSON
    integers that fit in int64, and a tie a JSON boolean.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise PairParseError("empty pair file", 1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise PairParseError(f"bad header: {e.msg}", 1) from e
    if not isinstance(header, dict):
        raise PairParseError(f"header is not a JSON object: {lines[0][:40]!r}", 1)
    version = header.get("schema_version")
    if not (type(version) is int and version == PAIR_SCHEMA_VERSION):
        raise VersionError(f"unsupported pair schema version {version!r}")
    if "dim" in header and (type(header["dim"]) is not int or header["dim"] < 1):
        raise PairParseError(f"header dim {header['dim']!r} is not a positive integer", 1)
    dim = header.get("dim", input_dim)
    if input_dim is not None and dim != input_dim:
        raise PairParseError(f"pairs have dim {dim!r} but the model's input_dim is {input_dim}", 1)
    pairs = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            values = [*rec["w"], *rec["l"], rec["rw"], rec["rl"]]
            if (any(type(v) not in (int, float) for v in values)
                    or not all(math.isfinite(v) for v in values)):
                raise ValueError("a sample or reward is not a finite number")
            winner = np.asarray(rec["w"], dtype=np.float64)
            loser = np.asarray(rec["l"], dtype=np.float64)
            c, seed, tie = rec["c"], rec["seed"], rec["tie"]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as e:
            raise PairParseError(str(e), i) from e
        if dim is None:
            dim = len(winner)
        if len(loser) != len(winner) or len(winner) != dim:
            raise PairParseError(f"dim mismatch: expected {dim}, got {len(winner)} and "
                                 f"{len(loser)}", i)
        if type(c) is not int:
            raise PairParseError(f"condition {c!r} is not an integer", i)
        if num_conditions is not None and not -1 <= c < num_conditions:
            raise PairParseError(f"condition {c} out of range [-1, {num_conditions})", i)
        if not _INT64_MIN <= c <= _INT64_MAX:
            raise PairParseError(f"condition {c} does not fit in int64", i)
        if type(seed) is not int:
            raise PairParseError(f"seed {seed!r} is not an integer", i)
        if not _INT64_MIN <= seed <= _INT64_MAX:
            raise PairParseError(f"seed {seed} does not fit in int64", i)
        if type(tie) is not bool:
            raise PairParseError(f"tie {tie!r} is not a boolean", i)
        pairs.append(PreferencePair(condition=c, winner=winner, loser=loser,
                                    reward_w=float(rec["rw"]), reward_l=float(rec["rl"]),
                                    seed=seed, tie=tie))
    return pair_table(pairs)


def oracle_save_pairs(table, path, reward_spec=None):
    """save_pairs as one json.dumps and one write per row of the table;
    byte oracle for the template writer."""
    header = {
        "schema_version": PAIR_SCHEMA_VERSION,
        "reward_spec": reward_spec.to_dict() if reward_spec is not None else None,
        "dim": table.dim,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for i in range(len(table)):
            rec = {
                "c": int(table.condition[i]),
                "w": table.winner[i].tolist(),
                "l": table.loser[i].tolist(),
                "rw": float(table.reward_w[i]),
                "rl": float(table.reward_l[i]),
                "seed": int(table.seed[i]),
                "tie": bool(table.tie[i]),
            }
            fh.write(json.dumps(rec) + "\n")


def oracle_win_rate_csv(trials) -> bytes:
    """win_rate.csv as csv.writer writes it, one row per trial; byte oracle
    for emit_report's row formatter."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["trial", "condition", "reward_a", "reward_b", "outcome"])
    for row in trials:
        w.writerow([row[0], row[1], repr(row[2]), repr(row[3]), row[4]])
    return buf.getvalue().encode()


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
