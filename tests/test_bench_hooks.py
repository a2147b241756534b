"""The benchmark's hooks into the package resolve.

perfbench/spans.py wraps package functions by (module, name), wraps
Var.backward, tells taped forwards apart by TapeParams and hands
value_and_grad a wrapped loss_fn. A change that renames or removes any of
them breaks traced benchmark runs; these tests make it fail here first.
Likewise every config key the benchmark's workloads and
tools/artifact_hashes.py set must still load.
"""
import importlib
import importlib.util
import inspect
import json
import os
import sys

import numpy as np
import pytest

import inpo.cli  # noqa: F401  (the tracer scans every loaded inpo module)
from inpo.autodiff import Var
from inpo.config import load_config
from inpo.denoiser import DenoiserArch, TapeParams, init_denoiser, value_and_grad
from inpo.preference import sft_terms
from inpo.schedule import make_schedule

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_by_path(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    mod = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is defined
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def spans():
    return load_by_path("perfbench_spans", "perfbench", "spans.py")


def test_every_span_target_resolves(spans):
    for mod_name, attr, *_ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), f"{mod_name}.{attr}"


def test_tape_hooks_resolve():
    assert callable(Var.__dict__["backward"])
    assert inspect.isclass(TapeParams)


def test_traced_gradient_records_the_tape_spans(spans):
    p = init_denoiser(DenoiserArch(2, (8,), 2, 4), 0)
    s = make_schedule("cosine", 100)
    x, t, c = np.zeros((4, 2)), np.array([5, 6, 7, 8]), np.zeros(4, dtype=np.int64)
    def loss_fn(tape):
        return sft_terms(tape, s, x, t, c, c, x)

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = sys.modules["inpo.trainer"].value_and_grad(p, loss_fn)
    finally:
        tracer.uninstall()
    names = [sp[0] for sp in tracer.spans]
    for name in ("denoiser.value_and_grad", "autodiff.tape_forward",
                 "denoiser.eps_forward.taped", "autodiff.backward"):
        assert names.count(name) == 1, name
    assert spans.installed_wrappers() == []
    # tracing only observes: the value and gradient are the untraced ones
    value, grad = value_and_grad(p, loss_fn)
    assert traced[0] == value
    assert traced[1].vec.tobytes() == grad.vec.tobytes()


def test_every_key_the_benchmark_sets_loads(tmp_path):
    workloads = load_by_path("perfbench_workloads", "perfbench", "workloads.py")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    config = tmp_path / "fixed.cfg"
    config.write_text(workloads.FIXED_CONFIG)
    for name in names:
        for call in workloads.setup_calls(name, 0) + workloads.round_calls(name, 0):
            argv = call.argv(str(tmp_path), str(config))
            sets = [v for flag, v in zip(argv, argv[1:]) if flag == "--set"]
            load_config(str(config), sets)


def test_every_key_the_hash_tool_sets_loads():
    tool = load_by_path("tools_artifact_hashes", "tools", "artifact_hashes.py")
    for sets in tool.ALIGNS.values():
        load_config(None, [f"{k}={v}" for k, v in {**tool.TINY, **sets}.items()])
