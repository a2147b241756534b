"""Every field of AlignConfig, SamplerConfig and DeltaStrategy changes what
its reader computes: one tiny align per AlignConfig field, one ddim_sample
per SamplerConfig field and one make_targets per DeltaStrategy field, each
with that one field off the baseline, must give other bytes than the
baseline run. The tests name every field that made no difference, or that
has no value in its table, so a new field must come with one."""
import dataclasses

import numpy as np
import pytest

from inpo.data import default_reward_spec, make_preference_pairs
from inpo.denoiser import DenoiserArch, init_denoiser, params_to_bytes
from inpo.preference import DeltaStrategy, make_targets
from inpo.sampler import SamplerConfig, ddim_sample
from inpo.schedule import make_schedule
from inpo.trainer import AlignConfig, align

S = make_schedule("cosine", 50)
ARCH = DenoiserArch(2, (8,), 8, 4)

# a few steps of the default method at a small batch, and per field one value
# off this baseline
ALIGN_BASELINE = AlignConfig(delta=DeltaStrategy("inversion", n=2), steps=3, batch_pairs=4,
                             warmup_steps=2)
ALIGN_CHANGES = {
    "method": "dpo",
    "beta": 50.0,
    "delta": DeltaStrategy("gaussian"),
    "steps": 4,
    "batch_pairs": 5,
    "accum_steps": 2,
    "lr": 3e-3,
    "warmup_steps": 0,
    "seed": 1,
    "t_min": 25,
}
SAMPLER_BASELINE = SamplerConfig(num_steps=3, guidance_w=0.5, t_start=40)
SAMPLER_CHANGES = {"num_steps": 4, "guidance_w": 2.0, "t_start": 30}
# (baseline, changes): the solver's fields are read only under fixed_point;
# a tol the start already meets stops the solver before its first update
DELTA_TABLES = [
    (DeltaStrategy("inversion", n=2), {"kind": "gaussian", "n": 3, "guidance_w_inv": 1.5}),
    (DeltaStrategy("fixed_point", max_iters=3), {"max_iters": 4, "tol": 10.0}),
]


def fields_that_change_nothing(cls, baseline, changes, run) -> list[str]:
    """The fields of ``cls`` with no value in ``changes``, or whose value
    there gives ``run`` the baseline's bytes."""
    want = run(baseline)
    return [f.name for f in dataclasses.fields(cls) if f.name not in changes
            or run(dataclasses.replace(baseline, **{f.name: changes[f.name]})) == want]


@pytest.fixture(scope="module")
def base():
    return init_denoiser(ARCH, 0)


def test_the_tables_name_only_fields():
    assert set(ALIGN_CHANGES) <= {f.name for f in dataclasses.fields(AlignConfig)}
    assert set(SAMPLER_CHANGES) <= {f.name for f in dataclasses.fields(SamplerConfig)}
    for _, changes in DELTA_TABLES:
        assert set(changes) <= {f.name for f in dataclasses.fields(DeltaStrategy)}


def test_every_align_config_field_changes_the_aligned_bytes(base):
    pairs = make_preference_pairs(base, S, default_reward_spec("eight_gaussians"), range(8), 2,
                                  SamplerConfig(2), 0)

    def run(cfg):
        return params_to_bytes(align(base, base, pairs, S, cfg), S.kind, S.T)

    same = fields_that_change_nothing(AlignConfig, ALIGN_BASELINE, ALIGN_CHANGES, run)
    assert not same, f"AlignConfig fields that did not change align's bytes: {same}"


def test_every_sampler_config_field_changes_the_sampled_bytes(base):
    rng = np.random.default_rng(3)
    x, c = rng.standard_normal((6, 2)), rng.integers(0, 8, size=6)

    def run(cfg):
        return ddim_sample(base, S, x, cfg, c).tobytes()

    same = fields_that_change_nothing(SamplerConfig, SAMPLER_BASELINE, SAMPLER_CHANGES, run)
    assert not same, f"SamplerConfig fields that did not change ddim_sample's bytes: {same}"


def test_every_delta_strategy_field_changes_the_targets_bytes(base):
    rng = np.random.default_rng(4)
    x0, c = rng.standard_normal((6, 2)), rng.integers(0, 8, size=6)

    def run(strategy):
        x_t, tau = make_targets(base, S, x0, 30, c, strategy, np.random.default_rng(5))
        return x_t.tobytes() + tau.tobytes()

    # a field is reported only if no table changes the bytes with it
    same = set.intersection(*(
        set(fields_that_change_nothing(DeltaStrategy, baseline, changes, run))
        for baseline, changes in DELTA_TABLES))
    assert not same, f"DeltaStrategy fields that did not change make_targets' bytes: {same}"
