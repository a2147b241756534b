"""Preference alignment for small diffusion models via latent inversion.

The package exports the names the command line front end (``inpo.cli``)
imports from it or that the README's library example uses, and no others.
Every other public name is reached by its module path, for example
``inpo.preference.make_targets``.
"""

from .data import (
    PairTable,
    default_reward_spec,
    gen_toy_dataset,
    load_pairs,
    make_preference_pairs,
    save_pairs,
)
from .denoiser import DenoiserArch, load_params, save_params
from .evaluation import emit_report, win_rate
from .preference import DeltaStrategy
from .sampler import SamplerConfig, ddim_invert
from .schedule import make_schedule
from .trainer import AlignConfig, align, pretrain_base, sft_ref_init

__all__ = [
    "AlignConfig",
    "DeltaStrategy",
    "DenoiserArch",
    "PairTable",
    "SamplerConfig",
    "align",
    "ddim_invert",
    "default_reward_spec",
    "emit_report",
    "gen_toy_dataset",
    "load_pairs",
    "load_params",
    "make_preference_pairs",
    "make_schedule",
    "pretrain_base",
    "save_pairs",
    "save_params",
    "sft_ref_init",
    "win_rate",
]
