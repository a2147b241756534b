"""End-to-end properties on the trained toy models (session fixtures)."""
import numpy as np

from inpo.data import PreferencePair, make_preference_pairs
from inpo.preference import DeltaStrategy, implicit_reward
from inpo.sampler import ddim_invert, ddim_sample
from inpo.trainer import sft_ref_init

from conftest import oracle_initial_variable, sft_loss


def test_conditional_sampling_mode_frequencies(toy_setup, base_model, gen_cfg):
    # conditional samples, pooled over conditions drawn like the data, must
    # reproduce the per-mode frequencies (round-robin: 12.5% each) within
    # 5 percentage points
    s = toy_setup["sched"]
    targets = toy_setup["spec"].targets
    counts = np.zeros(8)
    per = 128
    for c in range(8):
        z = np.random.default_rng(500 + c).standard_normal((per, 2))
        xs = ddim_sample(base_model, s, z, gen_cfg, c)
        d = np.linalg.norm(xs[:, None, :] - targets[None, :, :], axis=2)
        counts += np.bincount(d.argmin(axis=1), minlength=8)
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 0.125) < 0.05)


def test_self_consistency_residual_is_exact(toy_setup, base_model):
    # the last inversion step evaluates the noise estimate at the final
    # latent itself, so the returned triple satisfies the single-step
    # fixed-point equation exactly at any step count: the residual
    # ||x0_t - oracle_initial_variable(x_t)|| sits at float precision for all n,
    # which subsumes the residual-shrinks-with-n property
    s = toy_setup["sched"]
    X = toy_setup["X"][100:164]
    cond = toy_setup["cond"][100:164]
    t = int(0.8 * s.T)
    for n in (5, 50):
        res = ddim_invert(base_model, s, X, t, n, cond, 0.0)
        est = oracle_initial_variable(base_model, s, res.x_t, t, cond, 0.0)
        r = np.linalg.norm(res.x0_t - est, axis=1)
        assert np.max(r) < 1e-10


def test_implicit_reward_ranks_heldout_pairs(toy_setup, base_model, aligned_model, gen_cfg):
    # the aligned model's implicit reward must prefer winners over losers on
    # a held-out pair set it never trained on
    s = toy_setup["sched"]
    held = make_preference_pairs(
        base_model, s, toy_setup["spec"], list(range(8)), 8, gen_cfg, seed=4242
    )
    strat = DeltaStrategy("inversion", n=5)
    t_draws = [200, 400, 600, 800]
    wins = 0
    usable = [p for p in held if not p.tie]
    for k, p in enumerate(usable):
        rng = np.random.default_rng(6000 + k)
        rw = implicit_reward(aligned_model, base_model, s, p.winner, p.condition,
                             t_draws, strat, 2000.0, rng)
        rl = implicit_reward(aligned_model, base_model, s, p.loser, p.condition,
                             t_draws, strat, 2000.0, rng)
        wins += rw > rl
    assert wins / len(usable) > 0.5


def test_sft_ref_init_control_run(toy_setup, base_model):
    # winners drawn from the base training data itself: a brief winner-only
    # refresh must not move the held-out denoising loss much
    s = toy_setup["sched"]
    X, cond = toy_setup["X"], toy_setup["cond"]
    pairs = [
        PreferencePair(int(cond[i]), X[i], X[i + 1], 1.0, 0.0, seed=0)
        for i in range(0, 512, 2)
    ]
    refreshed = sft_ref_init(base_model, pairs, s, steps=150, lr=1e-4, seed=3)
    rng = np.random.default_rng(8)
    idx = rng.integers(0, len(X), 400)
    t = rng.integers(1, s.T + 1, 400)
    eps = rng.standard_normal((400, 2))
    before = sft_loss(base_model, s, (X[idx], cond[idx]), t, eps)
    after = sft_loss(refreshed, s, (X[idx], cond[idx]), t, eps)
    assert abs(after - before) / before < 0.25


def test_sft_ref_init_shifts_toward_winner_mode(toy_setup, base_model, gen_cfg):
    # winners concentrated on one mode pull generations toward that mode
    s = toy_setup["sched"]
    targets = toy_setup["spec"].targets
    rng = np.random.default_rng(9)
    hot = 3
    winners = targets[hot] + 0.05 * rng.standard_normal((256, 2))
    pairs = [
        PreferencePair(int(c), winners[i], rng.standard_normal(2), 1.0, 0.0, seed=0)
        for i, c in enumerate(rng.integers(0, 8, 256))
    ]
    shifted = sft_ref_init(base_model, pairs, s, steps=400, lr=1e-3, seed=3)

    def hot_fraction(model):
        hits = total = 0
        for c in range(8):
            z = np.random.default_rng(700 + c).standard_normal((64, 2))
            xs = ddim_sample(model, s, z, gen_cfg, c)
            d = np.linalg.norm(xs[:, None, :] - targets[None, :, :], axis=2)
            hits += (d.argmin(axis=1) == hot).sum()
            total += 64
        return hits / total

    assert hot_fraction(shifted) > hot_fraction(base_model) + 0.1


def test_roundtrip_contraction_on_trained_model(toy_setup, base_model):
    from inpo.evaluation import inversion_roundtrip

    s = toy_setup["sched"]
    X, cond = toy_setup["X"][:48], toy_setup["cond"][:48]
    grid = [5, 10, 25, 50]
    table = inversion_roundtrip(base_model, s, X, int(0.8 * s.T), grid, cond)
    for a, b in zip(grid, grid[1:]):
        assert table[b] <= 1.1 * table[a]


def test_aligned_model_moves_samples_toward_targets(toy_setup, base_model, aligned_model, gen_cfg):
    s = toy_setup["sched"]
    targets = toy_setup["spec"].targets
    d_base, d_aligned = [], []
    for c in range(8):
        z = np.random.default_rng(800 + c).standard_normal((64, 2))
        xs_b = ddim_sample(base_model, s, z, gen_cfg, c)
        xs_a = ddim_sample(aligned_model, s, z, gen_cfg, c)
        d_base.append(np.linalg.norm(xs_b - targets[c], axis=1).mean())
        d_aligned.append(np.linalg.norm(xs_a - targets[c], axis=1).mean())
    assert np.mean(d_aligned) < np.mean(d_base)
