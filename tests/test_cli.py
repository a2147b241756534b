import csv
import json

import numpy as np
import pytest

import inpo.cli as cli_mod
from inpo.cli import main
from inpo.denoiser import DenoiserArch, init_denoiser, save_params

TINY = [
    "--set", "schedule.T=120",
    "--set", "model.hidden=16",
    "--set", "model.time_embed_dim=8",
    "--set", "data.n=400",
    "--set", "pretrain.steps=60",
    "--set", "pretrain.batch=32",
    "--set", "prefs.pairs_per_condition=4",
    "--set", "sample.n_steps=8",
    "--set", "align.steps=10",
    "--set", "align.batch_pairs=8",
    "--set", "align.warmup_steps=2",
    "--set", "align.delta.n=3",
    "--set", "eval.n_trials=64",
]


def run(args):
    return main([*args, *TINY])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    assert run(["pretrain", "--out", str(out), "--seed", "1"]) == 0
    assert run([
        "make-prefs", "--out", str(out), "--seed", "2",
        "--set", f"prefs.model={out}/base.params",
    ]) == 0
    assert run([
        "align", "--out", str(out), "--seed", "3",
        "--set", f"align.base={out}/base.params",
        "--set", f"align.pairs={out}/pairs.jsonl",
    ]) == 0
    return out


def test_chain_artifacts_exist(workdir):
    for name in ("base.params", "pairs.jsonl", "aligned.params", "train_log.csv"):
        assert (workdir / name).exists()


def test_eval_self_comparison_is_half(workdir, tmp_path):
    out = tmp_path / "eval"
    assert run([
        "eval", "--out", str(out), "--seed", "4",
        "--set", f"eval.model_a={workdir}/base.params",
        "--set", f"eval.model_b={workdir}/base.params",
    ]) == 0
    with open(out / "report.json") as fh:
        rep = json.load(fh)
    assert rep["win_rate"] == 0.5


def test_dpo_and_inpo_gaussian_checkpoints_identical(workdir, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    shared = [
        "--set", f"align.base={workdir}/base.params",
        "--set", f"align.pairs={workdir}/pairs.jsonl",
    ]
    assert run(["align", "--out", str(out_a), "--seed", "7", *shared,
                "--set", "align.method=inpo", "--set", "align.delta=gaussian"]) == 0
    assert run(["align", "--out", str(out_b), "--seed", "7", *shared,
                "--set", "align.method=dpo"]) == 0
    a = (out_a / "aligned.params").read_bytes()
    b = (out_b / "aligned.params").read_bytes()
    assert a == b


@pytest.mark.parametrize("method", ["inpo", "dpo", "sft"])
def test_align_honours_the_configured_loss_weight(workdir, tmp_path, method):
    # the schedule comes from the model's header, the loss weight from the
    # config: snr changes the aligned parameters, and constant, the
    # default, gives the bytes of an align that does not set it
    shared = [
        "--set", f"align.base={workdir}/base.params",
        "--set", f"align.pairs={workdir}/pairs.jsonl",
        "--set", f"align.method={method}",
    ]
    blobs = {}
    for weight in (None, "constant", "snr"):
        out = tmp_path / str(weight)
        extra = [] if weight is None else ["--set", f"schedule.loss_weight={weight}"]
        assert run(["align", "--out", str(out), "--seed", "3", *shared, *extra]) == 0
        blobs[weight] = (out / "aligned.params").read_bytes()
    assert blobs[None] == blobs["constant"]
    assert blobs["snr"] != blobs["constant"]


def test_ablate_honours_the_configured_loss_weight(workdir, tmp_path, monkeypatch):
    import inpo.cli as cli_mod

    weights = []
    real = cli_mod.align

    def spy(base, ref, pairs, schedule, cfg, **kw):
        weights.append(schedule.loss_weight.copy())
        return real(base, ref, pairs, schedule, cfg, **kw)

    monkeypatch.setattr(cli_mod, "align", spy)
    for weight in ("constant", "snr"):
        assert run([
            "ablate", "--out", str(tmp_path / weight), "--seed", "6",
            "--set", f"ablate.base={workdir}/base.params",
            "--set", f"ablate.pairs={workdir}/pairs.jsonl",
            "--set", "ablate.betas=100", "--set", "ablate.ns=2", "--set", "ablate.w_invs=0",
            "--set", "ablate.t_mins=1", "--set", "ablate.steps=1", "--set", "ablate.trials=8",
            "--set", f"schedule.loss_weight={weight}",
        ]) == 0
    constant, snr = weights
    assert (constant == 1.0).all()
    assert not np.array_equal(snr, constant)


def test_rerun_is_byte_identical(workdir, tmp_path):
    out2 = tmp_path / "again"
    assert run(["pretrain", "--out", str(out2), "--seed", "1"]) == 0
    assert (out2 / "base.params").read_bytes() == (workdir / "base.params").read_bytes()
    assert run([
        "make-prefs", "--out", str(out2), "--seed", "2",
        "--set", f"prefs.model={out2}/base.params",
    ]) == 0
    assert (out2 / "pairs.jsonl").read_bytes() == (workdir / "pairs.jsonl").read_bytes()
    assert run([
        "align", "--out", str(out2), "--seed", "3",
        "--set", f"align.base={out2}/base.params",
        "--set", f"align.pairs={out2}/pairs.jsonl",
    ]) == 0
    assert (out2 / "aligned.params").read_bytes() == (workdir / "aligned.params").read_bytes()


def test_eval_rerun_identical_report(workdir, tmp_path):
    outs = []
    for tag in ("e1", "e2"):
        out = tmp_path / tag
        assert run([
            "eval", "--out", str(out), "--seed", "9",
            "--set", f"eval.model_a={workdir}/aligned.params",
            "--set", f"eval.model_b={workdir}/base.params",
        ]) == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "win_rate.csv").read_bytes() == (outs[1] / "win_rate.csv").read_bytes()


def test_eval_roundtrip_reports_std_err(workdir, tmp_path):
    out = tmp_path / "rt"
    assert run([
        "eval", "--out", str(out), "--seed", "4",
        "--set", f"eval.model_a={workdir}/aligned.params",
        "--set", f"eval.model_b={workdir}/base.params",
        "--set", "eval.roundtrip=true",
        "--set", "eval.samples=16",
        "--set", "eval.ns=2,4",
        "--set", "eval.t_target=96",
    ]) == 0
    with open(out / "roundtrip.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n"] for r in rows] == ["2", "4"]
    assert all(float(r["std_err"]) > 0 for r in rows)
    with open(out / "report.json") as fh:
        rep = json.load(fh)
    assert rep["roundtrip_std"] == {r["n"]: float(r["std_err"]) for r in rows}


def test_eval_times_every_phase_in_timing_csv_and_none_in_the_report(workdir, tmp_path):
    # wall times go to timing.csv alone, so a rerun's report.json is identical
    outs = []
    for tag in ("t1", "t2"):
        out = tmp_path / tag
        assert run([
            "eval", "--out", str(out), "--seed", "4",
            "--set", f"eval.model_a={workdir}/aligned.params",
            "--set", f"eval.model_b={workdir}/base.params",
            "--set", "eval.roundtrip=true", "--set", "eval.samples=8",
            "--set", "eval.ns=2,4", "--set", "eval.t_target=96",
        ]) == 0
        with open(out / "timing.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["config_id"] for r in rows] == ["roundtrip_n2", "roundtrip_n4", "win_rate"]
        assert all(float(r["seconds"]) > 0 for r in rows)
        with open(out / "report.json") as fh:
            assert "wall_times" not in json.load(fh)
        outs.append(out / "report.json")
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_invert_demo(workdir, tmp_path):
    out = tmp_path / "demo"
    assert run([
        "invert-demo", "--out", str(out), "--seed", "5",
        "--set", f"demo.model={workdir}/base.params",
        "--set", "demo.samples=4",
        "--set", "demo.ns=2,4",
        "--set", "demo.t_target=96",
    ]) == 0
    with open(out / "invert_demo.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 2
    assert set(r["n"] for r in rows) == {"2", "4"}


@pytest.mark.parametrize("cmd, key, value, message", [
    ("invert-demo", "demo.t_target", "121", "demo.t_target=121 must be <= the model's T=120"),
    ("invert-demo", "demo.t_target", "0", "demo.t_target=0 must be >= 1"),
    ("invert-demo", "demo.ns", "5,0", "demo.ns=5,0 must be non-empty and all >= 1"),
    ("eval", "eval.t_target", "121", "eval.t_target=121 must be <= the model's T=120"),
    ("eval", "eval.ns", "5,0", "eval.ns=5,0 must be non-empty and all >= 1"),
    ("invert-demo", "demo.samples", "0", "demo.samples=0 must be >= 1"),
    ("eval", "eval.samples", "0", "eval.samples=0 must be >= 1"),
], ids=["demo.t_target=121", "demo.t_target=0", "demo.ns=5,0", "eval.t_target=121",
        "eval.ns=5,0", "demo.samples=0", "eval.samples=0"])
def test_inversion_settings_are_checked_before_any_sampling(workdir, tmp_path, capsys,
                                                            monkeypatch, cmd, key, value,
                                                            message):
    # a bad t_target, step count or sample count must fail before a partial
    # table is written
    for name in ("ddim_invert", "win_rate"):
        monkeypatch.setattr(cli_mod, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([
        cmd, "--out", str(out), "--seed", "5",
        "--set", f"demo.model={workdir}/base.params", "--set", "demo.samples=4",
        "--set", f"eval.model_a={workdir}/aligned.params",
        "--set", f"eval.model_b={workdir}/base.params", "--set", "eval.roundtrip=true",
        "--set", "demo.t_target=96", "--set", "eval.t_target=96", "--set", f"{key}={value}",
    ]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "invert_demo.csv").exists() and not (out / "report.json").exists()


def test_ablate_row_count(workdir, tmp_path):
    out = tmp_path / "ablate"
    assert run([
        "ablate", "--out", str(out), "--seed", "6",
        "--set", f"ablate.base={workdir}/base.params",
        "--set", f"ablate.pairs={workdir}/pairs.jsonl",
        "--set", "ablate.betas=100,200",
        "--set", "ablate.ns=2,3",
        "--set", "ablate.w_invs=0",
        "--set", "ablate.t_mins=1",
        "--set", "ablate.steps=2",
        "--set", "ablate.trials=8",
    ]) == 0
    with open(out / "ablate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 1 * 1


def test_ablate_cells_are_align_runs_with_their_keys(workdir, tmp_path):
    # every align.* key reaches each cell, the reference included: a cell's
    # win rate is that of align then eval run with the cell's four keys,
    # align.steps=ablate.steps and the same seed
    keys = ["--set", "align.ref_init=sft_winners", "--set", "align.ref_sft_steps=20"]
    assert run([
        "ablate", "--out", str(tmp_path / "ablate"), "--seed", "6", *keys,
        "--set", f"ablate.base={workdir}/base.params",
        "--set", f"ablate.pairs={workdir}/pairs.jsonl",
        "--set", "ablate.betas=100,1000", "--set", "ablate.ns=2", "--set", "ablate.w_invs=0,1.5",
        "--set", "ablate.t_mins=1", "--set", "ablate.steps=4", "--set", "ablate.trials=16",
    ]) == 0
    with open(tmp_path / "ablate" / "ablate.csv") as fh:
        cells = list(csv.DictReader(fh))
    assert len(cells) == 4
    for i, cell in enumerate(cells):
        out = tmp_path / str(i)
        # after TINY, whose align.steps, align.delta.n and eval.n_trials they override
        assert main([
            "align", "--out", str(out), "--seed", "6", *keys, *TINY,
            "--set", f"align.base={workdir}/base.params",
            "--set", f"align.pairs={workdir}/pairs.jsonl",
            "--set", f"align.beta={cell['beta']}", "--set", f"align.delta.n={cell['n']}",
            "--set", f"align.delta.w_inv={cell['w_inv']}", "--set", f"align.t_min={cell['t_min']}",
            "--set", "align.steps=4",
        ]) == 0
        assert main([
            "eval", "--out", str(out), "--seed", "6", *TINY, "--set", "eval.n_trials=16",
            "--set", f"eval.model_a={out}/aligned.params",
            "--set", f"eval.model_b={workdir}/base.params",
        ]) == 0
        with open(out / "report.json") as fh:
            assert float(cell["win_rate"]) == json.load(fh)["win_rate"]


@pytest.mark.parametrize("cmd", ["align", "ablate"])
def test_out_of_range_pair_condition_fails_before_any_step(workdir, tmp_path, capsys, cmd):
    lines = (workdir / "pairs.jsonl").read_text().splitlines()
    rec = json.loads(lines[4])
    rec["c"] = 99
    lines[4] = json.dumps(rec)
    bad = tmp_path / "pairs.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([
        cmd, "--out", str(out), "--seed", "3",
        "--set", f"{cmd}.base={workdir}/base.params",
        "--set", f"{cmd}.pairs={bad}",
        "--set", "align.steps=5", "--set", "ablate.steps=5",
    ]) == 4
    assert "line 5: condition 99 out of range [-1, 8)" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("method, ref_init", [
    pytest.param("inpo", "base", id="inpo"), pytest.param("sft", "base", id="sft"),
    pytest.param("inpo", "sft_winners", id="inpo-sft_winners"),
])
def test_align_t_min_past_T_is_an_error_before_any_step(workdir, tmp_path, capsys, monkeypatch,
                                                        method, ref_init):
    # an SFT reference is a training call of its own, so it must not run either
    monkeypatch.setattr(cli_mod, "sft_ref_init",
                        lambda *a, **k: pytest.fail("sft_ref_init ran before the t_min check"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([
        "align", "--out", str(out), "--seed", "3",
        "--set", f"align.base={workdir}/base.params",
        "--set", f"align.pairs={workdir}/pairs.jsonl",
        "--set", f"align.method={method}", "--set", "align.t_min=121",
        "--set", f"align.ref_init={ref_init}",
    ]) == 2
    assert "config error: align.t_min=121 must be <= the model's T=120" in capsys.readouterr().err
    assert not (out / "train_log.csv").exists()


def test_sft_method_trains_no_sft_reference(workdir, tmp_path, monkeypatch):
    # the sft method's denoising window reads no reference, so ref_init=sft_winners
    # must not train one, and it writes what ref_init=base writes
    shared = [
        "--set", f"align.base={workdir}/base.params",
        "--set", f"align.pairs={workdir}/pairs.jsonl",
        "--set", "align.method=sft",
    ]
    assert run(["align", "--out", str(tmp_path / "base"), "--seed", "3", *shared]) == 0
    monkeypatch.setattr(cli_mod, "sft_ref_init",
                        lambda *a, **k: pytest.fail("sft_ref_init ran for the sft method"))
    assert run(["align", "--out", str(tmp_path / "sft_winners"), "--seed", "3", *shared,
                "--set", "align.ref_init=sft_winners"]) == 0
    assert ((tmp_path / "sft_winners" / "aligned.params").read_bytes()
            == (tmp_path / "base" / "aligned.params").read_bytes())


@pytest.mark.parametrize("cmd, key, value", [
    ("align", "align.lr", "nan"), ("align", "align.lr", "inf"),
    ("pretrain", "pretrain.lr", "inf"), ("align", "align.ref_sft_lr", "inf"),
])
def test_a_non_finite_learning_rate_is_a_config_error(workdir, tmp_path, capsys, cmd, key, value):
    # Adam at a non-finite rate writes a model that nothing can load; with
    # ref_init=sft_winners align reads align.ref_sft_lr too
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([
        cmd, "--out", str(out), "--seed", "3",
        "--set", f"align.base={workdir}/base.params",
        "--set", f"align.pairs={workdir}/pairs.jsonl",
        "--set", "align.ref_init=sft_winners", "--set", f"{key}={value}",
    ]) == 2
    assert f"config error: {key}={value} must be > 0 and finite" in capsys.readouterr().err
    assert not list(out.glob("*.params"))


def test_ablate_checks_every_cell_before_the_first(workdir, tmp_path, capsys, monkeypatch):
    # a bad later cell must not leave a partial table behind a trained first cell
    monkeypatch.setattr(cli_mod, "align", lambda *a, **k: pytest.fail("a cell trained"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([
        "ablate", "--out", str(out), "--seed", "6",
        "--set", f"ablate.base={workdir}/base.params",
        "--set", f"ablate.pairs={workdir}/pairs.jsonl",
        "--set", "ablate.betas=100", "--set", "ablate.ns=2", "--set", "ablate.w_invs=0",
        "--set", "ablate.t_mins=1,121", "--set", "ablate.steps=1", "--set", "ablate.trials=8",
    ]) == 2
    assert ("config error: ablate.t_mins=1,121 must be <= the model's T=120"
            in capsys.readouterr().err)
    assert not (out / "ablate.csv").exists()


_UNREAD_AXES = [
    ("inpo", "gaussian", "ablate.ns", "2,3", "align.delta.n"),
    ("inpo", "fixed_point", "ablate.w_invs", "0.0,1.5", "align.delta.w_inv"),
    ("dpo", "inversion", "ablate.ns", "2,3", "align.delta.n"),
    ("sft", "inversion", "ablate.betas", "100.0,1000.0", "align.beta"),
]


@pytest.mark.parametrize("method, delta, axis, values, key", _UNREAD_AXES,
                         ids=[f"{m}-{d}:{a}" for m, d, a, _, _ in _UNREAD_AXES])
def test_an_ablate_axis_the_run_does_not_read_exits_before_any_work(
        workdir, tmp_path, capsys, monkeypatch, method, delta, axis, values, key):
    # its cells would train one model again and again
    for name in ("align", "sft_ref_init", "win_rate"):
        monkeypatch.setattr(cli_mod, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["ablate", "--out", str(out), "--seed", "6", *_every_input(workdir),
                "--set", "align.ref_init=sft_winners", "--set", f"align.method={method}",
                "--set", f"align.delta={delta}", "--set", f"{axis}={values}"]) == 2
    assert (f"config error: {axis}={values} varies {key}, which align.method={method} with "
            f"align.delta={delta} does not read") in capsys.readouterr().err
    assert not _files_under(out)


def test_an_ablate_axis_the_run_reads_still_sweeps(workdir, tmp_path):
    # gaussian deltas read beta and t_min, so those axes make cells
    out = tmp_path / "out"
    assert run(["ablate", "--out", str(out), "--seed", "6", *_every_input(workdir),
                "--set", "align.delta=gaussian", "--set", "ablate.betas=100,1000",
                "--set", "ablate.t_mins=1,60", "--set", "ablate.steps=1"]) == 0
    with open(out / "ablate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["beta"], r["t_min"]) for r in rows] == [
        ("100.0", "1"), ("100.0", "60"), ("1000.0", "1"), ("1000.0", "60")]


_EMPTY_LISTS = [("eval", "eval.ns"), ("invert-demo", "demo.ns"), ("ablate", "ablate.betas"),
                ("ablate", "ablate.ns"), ("ablate", "ablate.w_invs"), ("ablate", "ablate.t_mins")]


@pytest.mark.parametrize("cmd, key", _EMPTY_LISTS, ids=[key for _, key in _EMPTY_LISTS])
def test_an_empty_list_key_exits_before_any_work(workdir, tmp_path, capsys, monkeypatch, cmd,
                                                 key):
    # an empty ns once meant invert.n_steps, and an empty ablate axis wrote a
    # header-only table after training an sft_winners reference for no cell
    for name in ("align", "sft_ref_init", "win_rate", "roundtrip_errors", "ddim_invert"):
        monkeypatch.setattr(cli_mod, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([cmd, "--out", str(out), "--seed", "6", *_every_input(workdir),
                "--set", "align.ref_init=sft_winners", "--set", f"{key}="]) == 2
    assert f"config error: {key}= must be non-empty and all " in capsys.readouterr().err
    assert not _files_under(out)


@pytest.mark.parametrize("cmd, key", [("ablate", "ablate.trials"), ("eval", "eval.n_trials")])
def test_a_trial_count_below_one_is_a_config_error_before_any_work(workdir, tmp_path, capsys,
                                                                   monkeypatch, cmd, key):
    # ablate must not train a cell, and eval must not sample, for a count
    # win_rate would reject only afterwards
    for name in ("align", "win_rate"):
        monkeypatch.setattr(cli_mod, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    out = tmp_path / "out"
    capsys.readouterr()
    # after TINY, which sets eval.n_trials
    assert main([
        cmd, "--out", str(out), "--seed", "6", *TINY,
        "--set", f"ablate.base={workdir}/base.params",
        "--set", f"ablate.pairs={workdir}/pairs.jsonl",
        "--set", "ablate.betas=100", "--set", "ablate.ns=2", "--set", "ablate.w_invs=0",
        "--set", "ablate.steps=1",
        "--set", f"eval.model_a={workdir}/aligned.params",
        "--set", f"eval.model_b={workdir}/base.params",
        "--set", f"{key}=0",
    ]) == 2
    assert f"config error: {key}=0 must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd, method", [
    ("align", "inpo"), ("align", "dpo"), ("align", "sft"), ("ablate", "inpo"),
])
def test_pairs_of_another_dim_fail_at_load(workdir, tmp_path, capsys, cmd, method):
    lines = (workdir / "pairs.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    head["dim"] = 3
    recs = [json.loads(line) for line in lines[1:]]
    for rec in recs:
        rec["w"].append(0.5)
        rec["l"].append(-0.5)
    bad = tmp_path / "pairs.jsonl"
    bad.write_text("\n".join(json.dumps(r) for r in [head, *recs]) + "\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([
        cmd, "--out", str(out), "--seed", "3",
        "--set", f"{cmd}.base={workdir}/base.params",
        "--set", f"{cmd}.pairs={bad}",
        "--set", f"align.method={method}",
    ]) == 4
    assert "line 1: pairs have dim 3 but the model's input_dim is 2" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_unknown_key_rejected(tmp_path):
    assert main(["pretrain", "--out", str(tmp_path), "--set", "nope.key=1"]) == 2


def test_bad_value_rejected(tmp_path):
    assert main(["pretrain", "--out", str(tmp_path), "--set", "schedule.T=banana"]) == 2


def test_missing_required_key(tmp_path):
    assert main(["align", "--out", str(tmp_path)]) == 2


def test_missing_model_file_is_io_error(tmp_path):
    assert main([
        "make-prefs", "--out", str(tmp_path),
        "--set", f"prefs.model={tmp_path}/nothere.params",
    ]) == 4


def test_config_file_and_override_order(tmp_path, workdir):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("schedule.T = 120  # grid size\nalign.beta = 55\n")
    out_a = tmp_path / "oa"
    out_b = tmp_path / "ob"
    common = [
        "align", "--config", str(cfile), "--seed", "3",
        "--set", f"align.base={workdir}/base.params",
        "--set", f"align.pairs={workdir}/pairs.jsonl",
        "--set", "align.steps=4", "--set", "align.batch_pairs=8",
        "--set", "align.warmup_steps=2", "--set", "align.delta.n=3",
    ]
    o1 = ["--set", "align.beta=77", "--set", "align.lr=0.002"]
    o2 = ["--set", "align.lr=0.002", "--set", "align.beta=77"]
    assert main([*common, "--out", str(out_a), *o1]) == 0
    assert main([*common, "--out", str(out_b), *o2]) == 0
    assert (out_a / "aligned.params").read_bytes() == (out_b / "aligned.params").read_bytes()


def test_bad_log_level_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("INPO_LOG_LEVEL", "loud")
    assert main(["pretrain", "--out", str(tmp_path)]) == 2


def test_malformed_params_header_is_io_error(workdir, tmp_path, capsys):
    buf = (workdir / "base.params").read_bytes()
    for name, bad in (("utf8", buf.replace(b"cosine", b"\xffosine", 1)),
                      ("kind", buf.replace(b"cosine", b"cosinx", 1))):
        path = tmp_path / f"{name}.params"
        path.write_bytes(bad)
        capsys.readouterr()
        assert run(["invert-demo", "--out", str(tmp_path / name),
                    "--set", f"demo.model={path}"]) == 4
        assert "io error: malformed parameter file header" in capsys.readouterr().err


def test_reward_target_count_must_match_model_conditions(tmp_path, capsys):
    out = tmp_path / "moons"
    assert run(["pretrain", "--out", str(out), "--seed", "1",
                "--set", "data.kind=two_moons"]) == 0
    model = f"{out}/base.params"
    for cmd, sets in (("make-prefs", ["--set", f"prefs.model={model}"]),
                      ("eval", ["--set", f"eval.model_a={model}",
                                "--set", f"eval.model_b={model}"])):
        capsys.readouterr()
        assert run([cmd, "--out", str(tmp_path / cmd), *sets]) == 2
        assert "reward has 8 targets but the model has 2 conditions" in capsys.readouterr().err
    assert run(["make-prefs", "--out", str(tmp_path / "ok"), "--set", f"prefs.model={model}",
                "--set", "data.kind=two_moons"]) == 0


def _pretrain(out, *sets):
    assert main(["pretrain", "--out", str(out), "--seed", "1", *TINY,
                 "--set", "pretrain.steps=20", *sets]) == 0
    return f"{out}/base.params"


def _eval(tmp_path, model_a, model_b):
    out = tmp_path / "eval"
    code = run(["eval", "--out", str(out), "--set", f"eval.model_a={model_a}",
                "--set", f"eval.model_b={model_b}"])
    return code, out


def test_eval_rejects_models_on_different_schedules(tmp_path, capsys):
    # model_b would be sampled on model_a's grid, which it was not trained on
    a = _pretrain(tmp_path / "t120")
    b = _pretrain(tmp_path / "t500", "--set", "schedule.T=500")
    capsys.readouterr()
    code, out = _eval(tmp_path, a, b)
    assert code == 2
    err = capsys.readouterr().err
    assert f"eval.model_b={b} has schedule cosine with T=500" in err
    assert f"eval.model_a={a} has cosine with T=120" in err
    assert not (out / "report.json").exists()


def test_eval_rejects_models_with_different_condition_counts(tmp_path, capsys):
    a = _pretrain(tmp_path / "gauss")
    b = _pretrain(tmp_path / "moons", "--set", "data.kind=two_moons")
    capsys.readouterr()
    code, out = _eval(tmp_path, a, b)
    assert code == 2
    err = capsys.readouterr().err
    assert f"eval.model_b={b} has 2 conditions but eval.model_a={a} has 8" in err
    assert not (out / "report.json").exists()


@pytest.fixture
def wide_model(tmp_path):
    """A model of 3-D samples, 8 conditions and the chain's schedule."""
    path = tmp_path / "wide.params"
    save_params(path, init_denoiser(DenoiserArch(3, (16,), 8, 8), 0), "cosine", 120)
    return path


@pytest.mark.parametrize("cmd, sets, message", [
    ("make-prefs", ["prefs.model={wide}"],
     "reward targets have 2 entries but the model's samples have 3"),
    ("eval", ["eval.model_a={wide}", "eval.model_b={wide}"],
     "reward targets have 2 entries but the model's samples have 3"),
    ("eval", ["eval.model_a={base}", "eval.model_b={wide}"],
     "eval.model_b={wide} has input_dim 3 but eval.model_a={base} has 2"),
], ids=["make-prefs", "eval", "eval-model_b"])
def test_a_model_of_another_sample_width_fails_before_sampling(workdir, wide_model, tmp_path,
                                                               capsys, monkeypatch, cmd, sets,
                                                               message):
    # a sample width the reward cannot score stops the command before any sampling
    for name in ("make_preference_pairs", "win_rate", "roundtrip_errors"):
        monkeypatch.setattr(cli_mod, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    paths = {"wide": wide_model, "base": workdir / "base.params"}
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([cmd, "--out", str(out), "--set", "eval.roundtrip=true",
                *(arg for s in sets for arg in ("--set", s.format(**paths)))]) == 2
    assert f"config error: {message.format(**paths)}" in capsys.readouterr().err
    assert not _files_under(out)


def _every_input(workdir):
    """Every subcommand's input keys, set to the chain's artifacts, at
    settings small enough to run."""
    base, pairs, aligned = (f"{workdir}/{n}" for n in ("base.params", "pairs.jsonl",
                                                        "aligned.params"))
    sets = [f"prefs.model={base}", f"align.base={base}", f"align.pairs={pairs}",
            f"eval.model_a={aligned}", f"eval.model_b={base}", "eval.roundtrip=true",
            "eval.t_target=96", "eval.ns=2", "eval.samples=4", f"demo.model={base}",
            "demo.t_target=96", "demo.ns=2", "demo.samples=4", f"ablate.base={base}",
            f"ablate.pairs={pairs}", "ablate.betas=100", "ablate.ns=2", "ablate.w_invs=0",
            "ablate.steps=2", "ablate.trials=8"]
    return [arg for s in sets for arg in ("--set", s)]


def _files_under(out):
    return [p for p in out.rglob("*") if p.is_file()] if out.exists() else []


_NON_FINITE_WEIGHTS = [
    ("align", "align.beta", "nan", "config error: align.beta=nan must be >= 0 and finite"),
    ("align", "align.beta", "inf", "config error: align.beta=inf must be >= 0 and finite"),
    ("ablate", "ablate.betas", "100,inf",
     "config error: ablate.betas=100.0,inf must be non-empty and all >= 0 and finite"),
    ("align", "align.delta.w_inv", "nan", "config error: align.delta.w_inv=nan must be finite"),
    ("ablate", "ablate.w_invs", "0,nan",
     "config error: ablate.w_invs=0.0,nan must be non-empty and all finite"),
    ("make-prefs", "sample.guidance_w", "nan",
     "config error: sample.guidance_w=nan must be finite"),
    ("eval", "sample.guidance_w", "inf", "config error: sample.guidance_w=inf must be finite"),
    ("eval", "invert.guidance_w", "nan", "config error: invert.guidance_w=nan must be finite"),
    ("invert-demo", "invert.guidance_w", "inf",
     "config error: invert.guidance_w=inf must be finite"),
]


@pytest.mark.parametrize("cmd, key, value, message", _NON_FINITE_WEIGHTS,
                         ids=[f"{c}:{k}={v}" for c, k, v, _ in _NON_FINITE_WEIGHTS])
def test_a_non_finite_weight_is_an_error_before_any_work(workdir, tmp_path, capsys, cmd, key,
                                                         value, message):
    # the weights would fail at step 0 or at the first sample, after the
    # work before them, as a numeric error
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([cmd, "--out", str(out), "--seed", "3", *_every_input(workdir),
                "--set", f"{key}={value}"]) == 2
    assert message in capsys.readouterr().err
    assert not _files_under(out)


@pytest.mark.parametrize("direction, message", [
    ("nan,0", "config error: reward.direction=nan,0.0 must be all finite"),
    ("1,2,3", "config error: reward.direction has 3 entries but the model's samples have 2"),
], ids=["nan,0", "1,2,3"])
def test_a_bad_linear_reward_direction_fails_before_sampling(workdir, tmp_path, capsys,
                                                             monkeypatch, direction, message):
    monkeypatch.setattr(cli_mod, "make_preference_pairs",
                        lambda *a, **k: pytest.fail("make_preference_pairs ran"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["make-prefs", "--out", str(out), "--seed", "2", *_every_input(workdir),
                "--set", "reward.kind=linear", "--set", f"reward.direction={direction}"]) == 2
    assert message in capsys.readouterr().err
    assert not _files_under(out)


@pytest.mark.parametrize("cmd", sorted(cli_mod.COMMANDS))
def test_a_negative_seed_is_a_config_error(workdir, tmp_path, capsys, cmd):
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([cmd, "--out", str(out), "--seed", "-1", *_every_input(workdir)]) == 2
    assert "config error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not _files_under(out)


@pytest.mark.parametrize("cmd", ["make-prefs", "eval", "ablate"])
@pytest.mark.parametrize("key, value, message", [
    ("sample.t_start", "121", "sample.t_start=121 must be <= the model's T=120"),
    ("sample.n_steps", "0", "sample.n_steps=0 must be >= 1"),
], ids=["t_start=121", "n_steps=0"])
def test_a_bad_sampler_key_exits_before_any_sampling_or_training(workdir, tmp_path, capsys,
                                                                 monkeypatch, cmd, key, value,
                                                                 message):
    # ablate once trained its first cell, then left a header-only ablate.csv
    for name in ("make_preference_pairs", "win_rate", "align", "ddim_invert"):
        monkeypatch.setattr(cli_mod, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    out = tmp_path / "out"
    capsys.readouterr()
    # after TINY, which sets sample.n_steps
    assert main([cmd, "--out", str(out), "--seed", "3", *TINY, *_every_input(workdir),
                 "--set", f"{key}={value}"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not _files_under(out)
