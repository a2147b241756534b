"""Span bookkeeping and wrapper installation."""
import sys

import numpy as np
import pytest

import inpo.cli  # noqa: F401  (loads every inpo module)
from inpo.denoiser import DenoiserArch, init_denoiser, value_and_grad
from inpo.preference import sft_terms
from inpo.sampler import SamplerConfig
from inpo.schedule import make_schedule
from spans import TARGETS, Tracer, installed_wrappers, roots, self_times, under

# name, start, end, parent, rows, extra
TREE = [
    ("cli", 0.0, 10.0, -1, 0, None),
    ("a", 1.0, 4.0, 0, 0, None),
    ("b", 2.0, 3.0, 1, 0, None),
    ("c", 5.0, 9.0, 0, 0, None),
    ("b", 6.0, 8.5, 3, 0, None),
    ("cli", 11.0, 12.0, -1, 0, None),
]


def test_self_time_is_duration_minus_direct_children():
    assert self_times(TREE) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.5, 1.0])
    # self times of a tree add up to the roots' durations
    assert sum(self_times(TREE)) == pytest.approx(10.0 + 1.0)


def test_roots_and_ancestors():
    assert roots(TREE) == [0, 0, 0, 0, 0, 5]
    assert under(TREE, "c") == [False, False, False, False, True, False]
    assert under(TREE, "cli") == [False, True, True, True, True, False]


def _originals():
    return {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr, *_ in TARGETS}


def test_every_importing_module_sees_the_wrapper():
    originals = _originals()
    importers = {key: [m for m in list(sys.modules.values())
                       if m is not None and m.__name__.startswith("inpo")
                       and any(v is fn for v in vars(m).values())]
                 for key, fn in originals.items()}
    tracer = Tracer()
    tracer.install()
    try:
        for key, mods in importers.items():
            assert mods, key
            for mod in mods:
                names = [k for k, v in vars(mod).items() if v is originals[key]]
                assert not names, f"{mod.__name__}.{names} still holds the original {key}"
        # the references the hot paths actually go through
        assert sys.modules["inpo.sampler"].predict_noise.__perfbench_span__
        assert sys.modules["inpo.preference"].ddim_invert.__perfbench_span__
        assert sys.modules["inpo.trainer"].value_and_grad.__perfbench_span__
        assert sys.modules["inpo.denoiser"].eps_forward.__perfbench_span__
        assert sys.modules["inpo.cli"].align.__perfbench_span__
        assert "inpo.autodiff.Var.backward" in installed_wrappers()
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    assert _originals() == originals


def test_spans_nest_and_tell_plain_from_taped_forwards():
    arch = DenoiserArch(2, (8,), 2, 4)
    params = init_denoiser(arch, 0)
    s = make_schedule("cosine", 100)
    tracer = Tracer()
    tracer.install()
    try:
        sampler = sys.modules["inpo.sampler"]
        sampler.ddim_sample(params, s, np.zeros((3, 2)), SamplerConfig(2, 1.0), 0)
        x = np.zeros((4, 2))
        t = np.array([5, 6, 7, 8])
        c = np.zeros(4, dtype=np.int64)
        sys.modules["inpo.denoiser"].value_and_grad(
            params, lambda tape: sft_terms(tape, s, x, t, c, c, x))
    finally:
        tracer.uninstall()
    names = [sp[0] for sp in tracer.spans]
    parent = {i: sp[3] for i, sp in enumerate(tracer.spans)}
    assert names[0] == "sampler.ddim_sample" and tracer.spans[0][4] == 3
    plain = [i for i, n in enumerate(names) if n == "denoiser.eps_forward"]
    assert len(plain) == 2
    assert all(names[parent[i]] == "denoiser.predict_noise" for i in plain)
    taped = [i for i, n in enumerate(names) if n == "denoiser.eps_forward.taped"]
    assert len(taped) == 1
    assert names[parent[taped[0]]] == "autodiff.tape_forward"
    assert names[parent[parent[taped[0]]]] == "denoiser.value_and_grad"
    backward = names.index("autodiff.backward")
    assert names[parent[backward]] == "denoiser.value_and_grad"
    assert names.count("denoiser.time_embedding") == 3
    # uninstalling puts the original back
    assert value_and_grad is sys.modules["inpo.denoiser"].value_and_grad
