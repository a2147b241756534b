"""Preference alignment for small diffusion models via latent inversion."""

from .data import (
    PairTable,
    PreferencePair,
    RewardSpec,
    default_reward_spec,
    gen_toy_dataset,
    load_pairs,
    make_preference_pairs,
    save_pairs,
    score,
)
from .denoiser import (
    NULL_CONDITION,
    DenoiserArch,
    DenoiserParams,
    init_denoiser,
    load_params,
    predict_noise,
    save_params,
)
from .evaluation import (
    EvalReport,
    emit_report,
    inversion_roundtrip,
    win_rate,
)
from .preference import (
    DeltaStrategy,
    implicit_reward,
    make_targets,
    solve_delta_fixed_point,
)
from .sampler import (
    InversionResult,
    SamplerConfig,
    ddim_invert,
    ddim_sample,
)
from .schedule import NoiseSchedule, forward_diffuse, make_schedule
from .trainer import (
    AlignConfig,
    Checkpoint,
    align,
    load_checkpoint,
    pretrain_base,
    save_checkpoint,
    sft_ref_init,
)

__all__ = [
    "NULL_CONDITION",
    "AlignConfig",
    "Checkpoint",
    "DeltaStrategy",
    "DenoiserArch",
    "DenoiserParams",
    "EvalReport",
    "InversionResult",
    "NoiseSchedule",
    "PairTable",
    "PreferencePair",
    "RewardSpec",
    "SamplerConfig",
    "align",
    "ddim_invert",
    "ddim_sample",
    "default_reward_spec",
    "emit_report",
    "forward_diffuse",
    "gen_toy_dataset",
    "implicit_reward",
    "init_denoiser",
    "inversion_roundtrip",
    "load_checkpoint",
    "load_pairs",
    "load_params",
    "make_preference_pairs",
    "make_schedule",
    "make_targets",
    "predict_noise",
    "pretrain_base",
    "save_checkpoint",
    "save_pairs",
    "save_params",
    "score",
    "sft_ref_init",
    "solve_delta_fixed_point",
    "win_rate",
]
