"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The slow shared artifacts
(pretrained model, preference pairs, aligned model) come from session
fixtures in conftest.py.
"""
import csv
import math
import time

import numpy as np
import pytest

from inpo.data import PreferencePair
from inpo.denoiser import DenoiserArch, init_denoiser
from inpo.evaluation import inversion_roundtrip, win_rate
from inpo.preference import (
    DeltaStrategy,
    make_targets,
    pair_loss_terms,
    sft_terms,
)
from inpo.denoiser import _cond_rows, value_and_grad
from inpo.sampler import ddim_invert
from inpo.schedule import forward_diffuse, make_schedule
from inpo.trainer import AlignConfig, align

from conftest import (
    dpo_diffusion_loss,
    finite_diff,
    inpo_loss,
    make_linear_model,
    make_tanh_model,
    max_rel_err,
    oracle_ode_integrate,
)

LN2 = math.log(2.0)


def as_float(x):
    from inpo.autodiff import Var

    return float(x.data if isinstance(x, Var) else x)


def report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_loss_identity_at_reference(sched1000):
    s = sched1000
    strategies = (
        DeltaStrategy("inversion", n=3),
        DeltaStrategy("gaussian"),
        DeltaStrategy("fixed_point", max_iters=8),
    )
    betas = (0.0, 2000.0, 5000.0)
    tick = time.perf_counter()
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng(10_000 + k)
        arch = DenoiserArch(2, (int(rng.integers(4, 24)),), 4, 8)
        p = init_denoiser(arch, k)
        pair = PreferencePair(
            condition=int(rng.integers(0, 4)),
            winner=rng.standard_normal(2),
            loser=rng.standard_normal(2),
            reward_w=1.0,
            reward_l=0.0,
            seed=k,
        )
        t = int(rng.integers(1, s.T + 1))
        out = inpo_loss(p, p, s, pair, t, strategies[k % 3], betas[k % 3], rng)
        worst = max(worst, abs(out.total - LN2))
    elapsed = time.perf_counter() - tick
    report(
        1,
        worst < 1e-9 and elapsed < 10.0,
        f"|total - ln2| max {worst:.2e} over 100 configs (< 1e-9), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_dpo_reduction(sched1000, base_model, pref_pairs):
    s = sched1000
    tick = time.perf_counter()
    arch = DenoiserArch(2, (10,), 4, 6)
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng(20_000 + k)
        p = init_denoiser(arch, k)
        ref = init_denoiser(arch, k + 1)
        pair = PreferencePair(
            condition=int(rng.integers(0, 4)),
            winner=rng.standard_normal(2),
            loser=rng.standard_normal(2),
            reward_w=1.0,
            reward_l=0.0,
            seed=k,
        )
        t = int(rng.integers(1, s.T + 1))
        beta = float(rng.choice([0.0, 500.0, 2000.0, 5000.0]))
        a = inpo_loss(p, ref, s, pair, t, DeltaStrategy("gaussian"), beta, np.random.default_rng(k))
        d2 = np.random.default_rng(k)
        b = dpo_diffusion_loss(p, ref, s, pair, t, d2.standard_normal(2), d2.standard_normal(2), beta)
        worst = max(worst, abs(a.total - b.total))

    cfg = dict(beta=300.0, steps=25, batch_pairs=16, accum_steps=2, lr=1e-3,
               warmup_steps=5, seed=77)
    run_inpo = align(base_model, base_model, pref_pairs, s,
                     AlignConfig(method="inpo", delta=DeltaStrategy("gaussian"), **cfg))
    run_dpo = align(base_model, base_model, pref_pairs, s,
                    AlignConfig(method="dpo", delta=DeltaStrategy("gaussian"), **cfg))
    bitwise = all(a.tobytes() == b.tobytes() for a, b in zip(run_inpo.flat(), run_dpo.flat()))
    elapsed = time.perf_counter() - tick
    report(
        2,
        worst <= 1e-12 and bitwise and elapsed < 300.0,
        f"loss gap max {worst:.2e} (<= 1e-12), align checkpoints bit-identical={bitwise}, "
        f"{elapsed:.1f}s (< 5min)",
    )


def test_criterion_3_gradient_correctness(sched1000):
    s = sched1000
    arch = DenoiserArch(2, (12,), 3, 6)
    n_params = arch.param_count()
    tick = time.perf_counter()
    worst = {"pretrain": 0.0, "dpo": 0.0, "inpo": 0.0}
    for trial in range(20):
        rng = np.random.default_rng(30_000 + trial)
        p = init_denoiser(arch, trial)
        B = 3
        t = rng.integers(1, s.T + 1, size=B)
        cc = rng.integers(0, 3, size=B)
        rows = _cond_rows(cc, 3)

        x0 = rng.standard_normal((B, 2))
        eps = rng.standard_normal((B, 2))
        x_t = forward_diffuse(s, x0, t, eps)

        def sft_fn(model):
            return sft_terms(model, s, x_t, t, cc, rows, eps)

        _, ad = value_and_grad(p, sft_fn)
        fd = finite_diff(p, lambda q: as_float(sft_fn(q)))
        worst["pretrain"] = max(worst["pretrain"], max_rel_err(ad, fd))

        ref = init_denoiser(arch, trial + 500)
        xw = rng.standard_normal((B, 2))
        xl = rng.standard_normal((B, 2))
        ew = rng.standard_normal((B, 2))
        el = rng.standard_normal((B, 2))
        x_tw, x_tl = forward_diffuse(s, xw, t, ew), forward_diffuse(s, xl, t, el)

        def dpo_fn(model):
            return pair_loss_terms(model, ref, s, x_tw, ew, x_tl, el, t, cc, 3.0)["mean_total"]

        _, ad = value_and_grad(p, dpo_fn)
        fd = finite_diff(p, lambda q: as_float(dpo_fn(q)))
        worst["dpo"] = max(worst["dpo"], max_rel_err(ad, fd))

        # inversion targets are sampled constants: freeze them, then check the
        # gradient of the resulting objective
        strat = DeltaStrategy("inversion", n=4)
        iw_xt, iw_tau = make_targets(p, s, xw, t, cc, strat, rng)
        il_xt, il_tau = make_targets(p, s, xl, t, cc, strat, rng)

        def inpo_fn(model):
            return pair_loss_terms(model, ref, s, iw_xt, iw_tau, il_xt, il_tau, t, cc, 3.0)["mean_total"]

        _, ad = value_and_grad(p, inpo_fn)
        fd = finite_diff(p, lambda q: as_float(inpo_fn(q)))
        worst["inpo"] = max(worst["inpo"], max_rel_err(ad, fd))
    elapsed = time.perf_counter() - tick
    bad = max(worst.values())
    report(
        3,
        bad < 1e-4 and n_params <= 1000 and elapsed < 120.0,
        f"max rel err {bad:.2e} (< 1e-4) on {n_params}-param net over 20 draws x 3 losses, "
        f"{elapsed:.1f}s (< 2min)",
    )


def test_criterion_4_inversion_fidelity(toy_setup, base_model):
    s = toy_setup["sched"]
    tick = time.perf_counter()
    X, cond = toy_setup["X"][:64], toy_setup["cond"][:64]
    t_target = int(0.8 * s.T)
    grid = [5, 10, 25, 50]
    table = inversion_roundtrip(base_model, s, X, t_target, grid, cond)
    mono = all(table[grid[i + 1]] <= 1.1 * table[grid[i]] for i in range(len(grid) - 1))
    elapsed = time.perf_counter() - tick
    report(
        4,
        table[50] < 0.05 and mono and elapsed < 300.0,
        f"roundtrip err {{n: err}} = { {k: round(v, 4) for k, v in table.items()} }, "
        f"n=50 err {table[50]:.4f} (< 0.05 data-std), monotone within 10% = {mono}, "
        f"{elapsed:.1f}s (< 5min)",
    )


def test_criterion_5_oracle_equivalence(sched1000):
    s = sched1000
    tick = time.perf_counter()
    rng = np.random.default_rng(41)
    B = rng.standard_normal((2, 2))
    A = 0.05 * (B + B.T) / 2
    lin = make_linear_model(A)
    x0 = rng.standard_normal(2)
    t = 600
    inv = ddim_invert(lin, s, x0, t, n=100, c=0)
    orc = oracle_ode_integrate(lin, s, x0, 0, t, steps=1000)
    rel = float(np.linalg.norm(inv.x_t - orc) / np.linalg.norm(orc))

    probe = make_tanh_model(0.6 * np.random.default_rng(42).standard_normal((2, 2)))
    x = np.random.default_rng(43).standard_normal(2)
    ref = oracle_ode_integrate(probe, s, x, 0, 800, steps=1280)
    steps_grid = [8, 16, 32, 64]
    errs = [
        float(np.linalg.norm(oracle_ode_integrate(probe, s, x, 0, 800, steps=n) - ref))
        for n in steps_grid
    ]
    slope = -float(np.polyfit(np.log(steps_grid), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - tick
    report(
        5,
        rel < 1e-3 and 3.0 <= slope <= 5.0 and elapsed < 60.0,
        f"invert vs RK4 rel err {rel:.2e} (< 1e-3 at n=100), RK4 self-convergence order "
        f"{slope:.2f} (in [3, 5]), {elapsed:.1f}s (< 1min)",
    )


def test_criterion_6_alignment_efficacy(toy_setup, base_model, aligned_model, gen_cfg):
    s = toy_setup["sched"]
    tick = time.perf_counter()
    rep = win_rate(
        aligned_model, base_model, s, toy_setup["spec"], range(8), 512, gen_cfg, seed=99
    )
    elapsed = time.perf_counter() - tick
    report(
        6,
        rep.win_rate >= 0.60 and elapsed < 1800.0,
        f"win rate {rep.win_rate:.4f} (>= 0.60 over 512 shared-latent trials; "
        f"mean reward {rep.mean_reward_a:.3f} aligned vs {rep.mean_reward_b:.3f} base), "
        f"{elapsed:.1f}s (< 30min)",
    )


_TIMING_SCRIPT = """
import gc, json, sys, time
import numpy as np
from inpo.data import load_pairs
from inpo.denoiser import load_params
from inpo.preference import DeltaStrategy
from inpo.schedule import make_schedule
from inpo.trainer import AlignConfig, align

params_path, pairs_path = sys.argv[1], sys.argv[2]
base, kind, T = load_params(params_path)
s = make_schedule(kind, T)
pairs = load_pairs(pairs_path)

def per_step_ms(n, steps=15):
    cfg = AlignConfig(method="inpo", beta=2000.0, delta=DeltaStrategy("inversion", n=n),
                      steps=steps, batch_pairs=512, lr=1e-3, warmup_steps=5, seed=55)
    t0 = time.perf_counter()
    align(base, base, pairs, s, cfg)
    return (time.perf_counter() - t0) / steps * 1000

per_step_ms(3, steps=5)  # warm caches and allocator
gc.collect()
gc.disable()  # collector pauses are noise, not per-step cost
pairs_ms = []
for _ in range(5):  # back-to-back pairs share machine state, so drift cancels
    pairs_ms.append((per_step_ms(10), per_step_ms(30)))
ratios = sorted(s / f for f, s in pairs_ms)
k = len(ratios) // 2
fast = float(np.median([f for f, _ in pairs_ms]))
slow = float(np.median([s for _, s in pairs_ms]))
print(json.dumps({"fast": fast, "slow": slow, "ratio": ratios[k]}))
"""


def test_criterion_7_efficiency_trend(toy_setup, base_model, pref_pairs, tmp_path):
    # timed in a fresh subprocess: a clean heap keeps the measurement free of
    # allocator state left behind by the rest of the suite; the minimum over
    # interleaved repeats estimates the per-step cost floor
    import json
    import subprocess
    import sys

    from inpo.data import save_pairs
    from inpo.denoiser import save_params

    s = toy_setup["sched"]
    tick = time.perf_counter()
    model_path = tmp_path / "timing.params"
    pairs_path = tmp_path / "timing_pairs.jsonl"
    save_params(model_path, base_model, s.kind, s.T)
    save_pairs(pref_pairs, pairs_path)
    out = subprocess.run(
        [sys.executable, "-c", _TIMING_SCRIPT, str(model_path), str(pairs_path)],
        capture_output=True, text=True, check=True,
    )
    times = json.loads(out.stdout)
    fast, slow, ratio = times["fast"], times["slow"], times["ratio"]
    elapsed = time.perf_counter() - tick
    report(
        7,
        ratio >= 2.0 and elapsed < 600.0,
        f"per-step wall time n=30 {slow:.2f} ms vs n=10 {fast:.2f} ms (batch 512), "
        f"paired-ratio median {ratio:.2f} over 5 repeats in a fresh process (>= 2.0), "
        f"{elapsed:.1f}s (< 10min)",
    )


def test_criterion_8_schedule_invariants():
    tick = time.perf_counter()
    ok = True
    detail = []
    for kind in ("cosine", "linear_beta"):
        s = make_schedule(kind, 1000)
        dec = bool(np.all(np.diff(s.alpha_bar) < 0))
        inc = bool(np.all(np.diff(s.sigma) > 0))
        rel = float(np.max(np.abs((s.sigma**2 + 1) - 1 / s.alpha_bar) * s.alpha_bar))
        ok = ok and dec and inc and rel < 1e-12
        detail.append(f"{kind}: dec={dec} inc={inc} identity rel err {rel:.1e}")
    elapsed = time.perf_counter() - tick
    report(8, ok and elapsed < 1.0, "; ".join(detail) + f", {elapsed:.3f}s (< 1s)")


def test_criterion_9_cli_reproducibility(tmp_path):
    from inpo.cli import main

    tiny = [
        "--set", "schedule.T=120", "--set", "model.hidden=16",
        "--set", "model.time_embed_dim=8", "--set", "data.n=400",
        "--set", "pretrain.steps=50", "--set", "pretrain.batch=32",
        "--set", "prefs.pairs_per_condition=4", "--set", "sample.n_steps=8",
        "--set", "align.steps=8", "--set", "align.batch_pairs=8",
        "--set", "align.warmup_steps=2", "--set", "align.delta.n=3",
        "--set", "eval.n_trials=32", "--set", "eval.roundtrip=true",
        "--set", "eval.t_target=96", "--set", "eval.ns=2,4",
        "--set", "eval.samples=4", "--set", "demo.samples=4",
        "--set", "demo.ns=2,4", "--set", "demo.t_target=96",
        "--set", "ablate.betas=100", "--set", "ablate.ns=2",
        "--set", "ablate.w_invs=0", "--set", "ablate.t_mins=1",
        "--set", "ablate.steps=2", "--set", "ablate.trials=8",
    ]

    def chain(out):
        out.mkdir()
        assert main(["pretrain", "--out", str(out), "--seed", "1", *tiny]) == 0
        assert main(["make-prefs", "--out", str(out), "--seed", "2", *tiny,
                     "--set", f"prefs.model={out}/base.params"]) == 0
        assert main(["align", "--out", str(out), "--seed", "3", *tiny,
                     "--set", f"align.base={out}/base.params",
                     "--set", f"align.pairs={out}/pairs.jsonl"]) == 0
        assert main(["eval", "--out", str(out), "--seed", "4", *tiny,
                     "--set", f"eval.model_a={out}/aligned.params",
                     "--set", f"eval.model_b={out}/base.params"]) == 0
        assert main(["invert-demo", "--out", str(out), "--seed", "5", *tiny,
                     "--set", f"demo.model={out}/base.params"]) == 0
        assert main(["ablate", "--out", str(out), "--seed", "6", *tiny,
                     "--set", f"ablate.base={out}/base.params",
                     "--set", f"ablate.pairs={out}/pairs.jsonl"]) == 0

    def strip_cols(path, drop):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        return [{k: v for k, v in r.items() if k not in drop} for r in rows]

    a, b = tmp_path / "a", tmp_path / "b"
    chain(a)
    chain(b)
    same = {}
    for name in ("base.params", "pairs.jsonl", "aligned.params", "report.json",
                 "win_rate.csv", "roundtrip.csv", "invert_demo.csv"):
        same[name] = (a / name).read_bytes() == (b / name).read_bytes()
    same["train_log.csv"] = strip_cols(a / "train_log.csv", {"wall_ms"}) == strip_cols(
        b / "train_log.csv", {"wall_ms"})
    same["ablate.csv"] = strip_cols(a / "ablate.csv", {"seconds"}) == strip_cols(
        b / "ablate.csv", {"seconds"})
    ok = all(same.values())
    report(9, ok, "byte-identical artifacts across reruns: "
           + ", ".join(f"{k}={v}" for k, v in sorted(same.items())))
