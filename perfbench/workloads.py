"""The three workloads, as sequences of ``inpo`` CLI calls.

Every workload uses one fixed setting, the README default (FIXED_CONFIG).
Set-up builds the inputs with the code under test: a short pretrain, then
make-prefs (and, for sample_eval, a short align so there is an aligned
model). A round is the timed part; the benchmark repeats rounds, closed
loop, one caller waiting for each call, until its time is used.

Per-call seeds derive from the workload seed, so the program receives only
inputs generated from that seed and every round repeats the same work.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

FIXED_CONFIG = """\
data.kind = eight_gaussians
model.hidden = 64,64
model.time_embed_dim = 16
schedule.kind = cosine
schedule.T = 1000
align.batch_pairs = 64
align.delta.n = 10
sample.n_steps = 40
sample.guidance_w = 1.0
eval.n_trials = 512
"""
BATCH_PAIRS = 64
PRETRAIN_BATCH = 128
PAIRS = 8 * 64  # eight conditions, prefs.pairs_per_condition default
EVAL_TRIALS = 512
ROUNDTRIP_SAMPLES = 64  # eval.samples default
ROUNDTRIP_NS = (5, 10, 25, 50)  # eval.ns default

SETUP_PRETRAIN_STEPS = 1000
SETUP_ALIGN_STEPS = 200
# Rounds are kept short (well under a second), so a run has many of them and
# a traced run can alternate traced and untraced rounds. align_step_ms pools
# the step times of all untraced rounds, and a run has at least MIN_ROUNDS
# rounds, so at least ten steps lie beyond p95.
INVERSION_STEPS = 50
FIXED_POINT_STEPS = 5
NOISING_PRETRAIN_STEPS = 50
NOISING_ALIGN_STEPS = 50
MIN_ROUNDS = 8  # half of them untraced in a traced run: 4 x 50 = 200 pooled steps

@dataclass(frozen=True)
class Call:
    """One CLI call: ``inpo <cmd> --config <cfg> --out <work>/<out> --seed <seed> --set ...``."""

    label: str  # phase name, unique within a setup or a round
    cmd: str
    out: str  # output directory relative to the work directory
    seed: int
    sets: tuple[str, ...] = ()
    steps: int = 0  # optimizer steps (align, pretrain)
    rows: int = 0  # rows the sampler generates (make-prefs, eval)

    def argv(self, work: str, config_path: str) -> list[str]:
        argv = [self.cmd, "--config", config_path, "--out", os.path.join(work, self.out),
                "--seed", str(self.seed)]
        for item in self.sets:
            key, val = item.split("=", 1)
            argv += ["--set", f"{key}={val.format(work=work)}"]
        return argv


_BASE = "{work}/setup/base.params"
_PAIRS = "{work}/setup/pairs.jsonl"
_ALIGNED = "{work}/setup/aligned.params"


def setup_calls(workload: str, seed: int) -> list[Call]:
    calls = [
        Call("pretrain", "pretrain", "setup", seed,
             (f"pretrain.steps={SETUP_PRETRAIN_STEPS}",), steps=SETUP_PRETRAIN_STEPS),
        Call("make-prefs", "make-prefs", "setup", seed + 1, (f"prefs.model={_BASE}",),
             rows=2 * PAIRS),
    ]
    if workload == "sample_eval":
        calls.append(Call("align.inversion", "align", "setup", seed + 2,
                          (f"align.base={_BASE}", f"align.pairs={_PAIRS}",
                           f"align.steps={SETUP_ALIGN_STEPS}"), steps=SETUP_ALIGN_STEPS))
    return calls


def _align(label, seed, steps, *sets) -> Call:
    return Call(label, "align", f"round/{label}", seed,
                (f"align.base={_BASE}", f"align.pairs={_PAIRS}", f"align.steps={steps}", *sets),
                steps=steps)


def _eval(seed, model_a) -> Call:
    return Call("eval", "eval", "round/eval", seed,
                (f"eval.model_a={model_a}", f"eval.model_b={_BASE}", "eval.roundtrip=true"),
                rows=2 * EVAL_TRIALS + ROUNDTRIP_SAMPLES * len(ROUNDTRIP_NS))


def round_calls(workload: str, seed: int) -> list[Call]:
    if workload == "align_inversion":
        return [
            _align("align.inversion", seed + 2, INVERSION_STEPS),
            _align("align.fixed_point", seed + 2, FIXED_POINT_STEPS, "align.delta=fixed_point"),
            _eval(seed + 3, "{work}/round/align.inversion/aligned.params"),
        ]
    if workload == "align_noising":
        return [
            Call("pretrain", "pretrain", "round/pretrain", seed + 4,
                 (f"pretrain.steps={NOISING_PRETRAIN_STEPS}",), steps=NOISING_PRETRAIN_STEPS),
            _align("align.dpo", seed + 2, NOISING_ALIGN_STEPS, "align.method=dpo"),
            _align("align.gaussian", seed + 2, NOISING_ALIGN_STEPS, "align.delta=gaussian"),
            _align("align.sft", seed + 2, NOISING_ALIGN_STEPS, "align.method=sft"),
        ]
    if workload == "sample_eval":
        return [
            Call("make-prefs", "make-prefs", "round/make-prefs", seed + 1,
                 (f"prefs.model={_BASE}",), rows=2 * PAIRS),
            _eval(seed + 3, _ALIGNED),
            Call("invert-demo", "invert-demo", "round/invert-demo", seed + 5,
                 (f"demo.model={_ALIGNED}",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# The align phase whose per-step wall times give align_step_ms, by workload.
STEP_PHASE = {"align_inversion": "align.inversion", "align_noising": "align.dpo"}
