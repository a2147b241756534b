"""The config registry's bounds: every numeric key declares one its default
meets, and a value just outside any of them stops the command line with
exit 2, naming the key, before a subcommand runs or ``--out`` is made. Each
bound is also held to the library code that reads its key: that reader
accepts a value exactly when the bound does."""
import ast
import inspect

import numpy as np
import pytest

import inpo.cli as cli_mod
import inpo.config as config_mod
from inpo.cli import main
from inpo.config import BOUNDS, NON_EMPTY, REGISTRY, load_config, show, within
from inpo.data import (DATASET_KINDS, RewardSpec, default_reward_spec, gen_toy_dataset,
                       make_preference_pairs)
from inpo.denoiser import NULL_CONDITION, DenoiserArch, init_denoiser
from inpo.errors import InvalidArgument
from inpo.evaluation import roundtrip_errors, win_rate
from inpo.preference import DeltaStrategy
from inpo.sampler import Inverter, SamplerConfig, ddim_invert
from inpo.schedule import make_schedule
from inpo.trainer import AlignConfig, pretrain_base, sft_ref_init

# values just outside each bound, and for a list's length the empty list
OUTSIDE = {
    ">= 0": ["-1"],
    ">= 1": ["0"],
    ">= 2": ["1"],
    "even and >= 2": ["0", "7"],
    "> 0 and finite": ["0", "inf", "nan"],
    ">= 0 and finite": ["-0.5", "inf", "nan"],
    "finite": ["nan", "inf", "-inf"],
    "in [0, 1]": ["-0.1", "1.1", "nan"],
    "non-empty": [""],
}


def element_bound(bound: str) -> str:
    """The bound on a value, or on each element of a list value."""
    return bound.removeprefix(NON_EMPTY).removeprefix("all ")


def outside(bound: str) -> list[str]:
    """Values just outside ``bound``: a list key's puts each after a good
    entry, and a non-empty list key's adds the empty list."""
    values = OUTSIDE[element_bound(bound)]
    if bound == element_bound(bound):
        return values
    return [f"5,{v}" for v in values] + (OUTSIDE["non-empty"] if bound.startswith(NON_EMPTY)
                                         else [])


CASES = [
    (key, bound, value)
    for key, (_, _, bound) in REGISTRY.items() if bound
    for value in outside(bound)
]


# each bound's edge values, just inside it
SMALLEST = 5e-324
EDGES = {
    ">= 0": ["0"],
    ">= 1": ["1"],
    ">= 2": ["2"],
    "even and >= 2": ["2"],
    "> 0 and finite": [str(SMALLEST), "1e308"],
    ">= 0 and finite": ["0", "1e308"],
    "finite": ["-1e308", "1e308"],
    "in [0, 1]": ["0", "1"],
    "non-empty": ["5"],
}


def test_every_bound_has_values_outside_it():
    assert set(OUTSIDE) == set(EDGES) == {*BOUNDS, "non-empty"}
    for bound in BOUNDS:
        assert all(BOUNDS[bound](float(v)) for v in EDGES[bound]), bound
        assert not any(BOUNDS[bound](float(v)) for v in OUTSIDE[bound]), bound
    # a list's length: one element is inside, the empty list outside
    parse, _, bound = REGISTRY["eval.ns"]
    assert all(within(bound, parse(v)) for v in EDGES["non-empty"])
    assert not any(within(bound, parse(v)) for v in OUTSIDE["non-empty"])


# keys no library function reads: inpo.cli resolves sample.t_start=0 to
# round(0.95 T) before SamplerConfig sees it
CLI_ONLY = {"sample.t_start"}


@pytest.fixture(scope="module")
def readers():
    """The library call each numeric key's value (a list key's element)
    goes to, as a function of that value; InvalidArgument is a rejection."""
    s = make_schedule("cosine", 20)
    arch = DenoiserArch(2, (4,), 8, 2)
    p = init_denoiser(arch, 0)
    data = gen_toy_dataset("eight_gaussians", 16, 0)
    spec = default_reward_spec("eight_gaussians")
    sampler = SamplerConfig(2).resolve(s)
    pairs = make_preference_pairs(p, s, spec, [0, 1], 2, sampler, 0)
    x0 = np.zeros((1, 2))

    def pretrain(steps=0, lr=1e-3, batch=1, cond_drop=0.0):
        return pretrain_base(data, arch, s, steps, lr, 0, batch, cond_drop)

    def sft_ref(steps=0, lr=1e-3):
        return sft_ref_init(p, pairs, s, steps, lr, 0)

    def trials(n):
        return win_rate(p, p, s, spec, [0], n, sampler, 0)

    def t_target(t):
        return ddim_invert(p, s, x0, t, 1, NULL_CONDITION)

    return {
        "schedule.T": lambda v: make_schedule("cosine", v),
        "model.hidden": lambda v: DenoiserArch(2, (v,), 1, 2),
        "model.time_embed_dim": lambda v: DenoiserArch(2, (), 1, v),
        "data.n": lambda v: gen_toy_dataset("eight_gaussians", v, 0),
        "pretrain.steps": lambda v: pretrain(steps=v),
        "pretrain.lr": lambda v: pretrain(lr=v),
        "pretrain.batch": lambda v: pretrain(batch=v),
        "pretrain.cond_drop": lambda v: pretrain(cond_drop=v),
        "reward.radius": lambda v: RewardSpec("ring_radius", radius=v),
        "reward.direction": lambda v: RewardSpec("linear", direction=np.array([1.0, v])),
        "prefs.pairs_per_condition": lambda v: make_preference_pairs(p, s, spec, [0], v,
                                                                     sampler, 0),
        "sample.n_steps": lambda v: SamplerConfig(v).resolve(s),
        "sample.guidance_w": lambda v: SamplerConfig(1, v),
        "invert.guidance_w": lambda v: Inverter(p, s, 1, 1, v),
        "align.beta": lambda v: AlignConfig(beta=v),
        "align.delta.n": lambda v: DeltaStrategy("inversion", n=v),
        "align.delta.w_inv": lambda v: DeltaStrategy("inversion", guidance_w_inv=v),
        "align.steps": lambda v: AlignConfig(steps=v),
        "align.batch_pairs": lambda v: AlignConfig(batch_pairs=v),
        "align.accum_steps": lambda v: AlignConfig(accum_steps=v),
        "align.lr": lambda v: AlignConfig(lr=v),
        "align.warmup_steps": lambda v: AlignConfig(warmup_steps=v),
        "align.t_min": lambda v: AlignConfig(t_min=v),
        "align.ref_sft_steps": lambda v: sft_ref(steps=v),
        "align.ref_sft_lr": lambda v: sft_ref(lr=v),
        "eval.n_trials": trials,
        "eval.t_target": t_target,
        "eval.ns": lambda v: roundtrip_errors(p, s, x0, 2, v),
        "eval.samples": lambda v: gen_toy_dataset("eight_gaussians", v, 0),
        "demo.t_target": t_target,
        "demo.ns": lambda v: ddim_invert(p, s, x0, 2, v, NULL_CONDITION),
        "demo.samples": lambda v: gen_toy_dataset("eight_gaussians", v, 0),
        "ablate.betas": lambda v: AlignConfig(beta=v),
        "ablate.ns": lambda v: DeltaStrategy("inversion", n=v),
        "ablate.w_invs": lambda v: DeltaStrategy("inversion", guidance_w_inv=v),
        "ablate.t_mins": lambda v: AlignConfig(t_min=v),
        "ablate.steps": lambda v: AlignConfig(steps=v),
        "ablate.trials": trials,
    }


def test_every_numeric_key_has_a_library_reader_or_is_named_cli_only(readers):
    numeric = {key for key, (_, _, bound) in REGISTRY.items() if bound}
    assert not set(readers) & CLI_ONLY
    assert set(readers) | CLI_ONLY == numeric


PROBES = sorted({v for values in (*EDGES.values(), *OUTSIDE.values(), ["3"]) for v in values})


@pytest.mark.parametrize("key", sorted(k for k, (_, _, b) in REGISTRY.items() if b and
                                       k not in CLI_ONLY))
def test_a_keys_reader_accepts_exactly_what_its_bound_does(readers, key):
    # every bound's edge and outside values, parsed as the key's values are:
    # the reader takes an edge of the key's own bound and rejects a value
    # just outside it, and a weaker bound (odd widths for
    # model.time_embed_dim, say) fails on another bound's values
    parser, default, bound = REGISTRY[key]
    parse = (float if isinstance(default[0], float) else int) if isinstance(default, tuple) \
        else parser
    inside = BOUNDS[element_bound(bound)]
    for raw in PROBES:
        try:
            value = parse(raw)
        except ValueError:  # a float probe for an integer key
            continue
        try:
            readers[key](value)
            accepted = True
        except InvalidArgument:
            accepted = False
        assert accepted == inside(value), f"{key}={raw}: reader {accepted}, bound {bound}"


@pytest.mark.parametrize("i, key, bound, value", [(i, *case) for i, case in enumerate(CASES)],
                         ids=[f"{key}={value}" for key, _, value in CASES])
def test_a_value_outside_its_bound_exits_before_any_work(tmp_path, capsys, monkeypatch, i, key,
                                                         bound, value):
    # every subcommand in turn, whether it reads the key or not
    for name in cli_mod.COMMANDS:
        monkeypatch.setitem(cli_mod.COMMANDS, name,
                            lambda *a, name=name: pytest.fail(f"{name} ran"))
    cmd = sorted(cli_mod.COMMANDS)[i % len(cli_mod.COMMANDS)]
    out = tmp_path / "out"
    assert main([cmd, "--out", str(out), "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}=") and f" must be {bound}" in err, err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--set", "eval.roundtrip=maybe"], "bad value for 'eval.roundtrip': not a boolean: 'maybe'"),
    (["--set", "data.kind=spiral"],
     f"bad value for 'data.kind': must be one of {DATASET_KINDS}, got 'spiral'"),
    (["--set", "schedule.T"], "override must be KEY=VALUE, got 'schedule.T'"),
    (["--config", "{missing}"], "cannot read config file: "),
    (["--config", "{run}"], "{run}:2: expected key=value, got 'schedule.T 50'"),
], ids=["non-boolean", "unknown-data-kind", "override-without-=", "unreadable-config",
        "line-without-="])
def test_a_malformed_setting_exits_before_any_work(tmp_path, capsys, monkeypatch, args, message):
    for name in cli_mod.COMMANDS:
        monkeypatch.setitem(cli_mod.COMMANDS, name,
                            lambda *a, name=name: pytest.fail(f"{name} ran"))
    paths = {"missing": tmp_path / "missing.cfg", "run": tmp_path / "run.cfg"}
    paths["run"].write_text("# a comment line\nschedule.T 50\n")
    out = tmp_path / "out"
    assert main(["pretrain", "--out", str(out), *(a.format(**paths) for a in args)]) == 2
    assert f"config error: {message.format(**paths)}" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_file_skips_blank_and_comment_only_lines(tmp_path):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("# a comment line\n\n    # an indented one\nschedule.T = 50  # trailing\n")
    assert load_config(str(cfile))["schedule.T"] == 50


def test_every_numeric_key_declares_a_bound_its_default_meets():
    for key, (parser, default, bound) in REGISTRY.items():
        value = parser(show(default))
        assert value == default, key
        elements = value if isinstance(value, tuple) else (value,)
        # bool is an int subclass; a flag has no bound
        numeric = all(type(x) in (int, float) for x in elements)
        assert (bound is not None) == numeric, key
        if bound:
            assert element_bound(bound) in BOUNDS, key
            assert bound.startswith(("all ", NON_EMPTY)) == isinstance(value, tuple), key
            assert within(bound, default), key


def test_a_value_is_checked_once_the_overrides_are_applied(tmp_path):
    # a file's value outside its bound is no error when an override replaces it
    cfile = tmp_path / "run.cfg"
    cfile.write_text("align.steps = -1\n")
    assert load_config(str(cfile), ["align.steps=3"])["align.steps"] == 3


def _reads(source: str) -> set[str]:
    """The keys ``source`` reads from a config: the string subscripts of
    cfg[...] and the string arguments of _require and _check_times. A key
    named only in a docstring, a log line or a message is no read."""
    keys = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "cfg"):
            args = [node.slice]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("_require", "_check_times")):
            args = node.args
        else:
            continue
        keys |= {a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)}
    return keys


def test_every_registry_key_is_read_by_the_command_line_or_the_reward():
    # a key nothing reads would parse, check its bound and change nothing;
    # ablate reads its axes as cfg[axis] for each axis of cli._AXES
    read = (_reads(inspect.getsource(cli_mod)) | set(cli_mod._AXES)
            | _reads(inspect.getsource(config_mod.reward_spec_from)))
    unread = set(REGISTRY) - read
    assert not unread, f"keys no command reads: {sorted(unread)}"


def test_a_key_named_only_in_text_is_not_read():
    source = '''
def f(cfg):
    """Reads cfg["doc.key"]."""
    log.info("eval.timing is gone")
    return cfg["a.b"], _require(cfg, "c.d"), _check_times(cfg, s, "e.f", "g.h"), x["i.j"]
'''
    assert _reads(source) == {"a.b", "c.d", "e.f", "g.h"}
