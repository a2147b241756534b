import json
import re

import numpy as np
import pytest

from inpo.data import (
    RewardSpec,
    default_reward_spec,
    gen_toy_dataset,
    load_pairs,
    load_pairs_header,
    make_preference_pairs,
    save_pairs,
    score,
)
from inpo.errors import InvalidArgument, PairParseError, VersionError
from inpo.sampler import SamplerConfig
from inpo.schedule import make_schedule

from inpo.denoiser import DenoiserArch, init_denoiser

from conftest import make_linear_model, oracle_load_pairs, oracle_make_preference_pairs


def test_dataset_deterministic():
    a, ca = gen_toy_dataset("eight_gaussians", 8000, seed=7)
    b, cb = gen_toy_dataset("eight_gaussians", 8000, seed=7)
    assert a.tobytes() == b.tobytes()
    assert np.array_equal(ca, cb)
    c, _ = gen_toy_dataset("eight_gaussians", 8000, seed=8)
    assert not np.array_equal(a, c)


def test_eight_gaussians_mode_means():
    n = 16000
    x, cond = gen_toy_dataset("eight_gaussians", n, seed=3)
    spec = default_reward_spec("eight_gaussians")
    per = n // 8
    sigma = 0.25 / np.sqrt(2.0**2 / 2 + 0.25**2)
    se = sigma / np.sqrt(per)
    for k in range(8):
        mu = x[cond == k].mean(axis=0)
        assert np.all(np.abs(mu - spec.targets[k]) < 3 * se)


def test_dataset_standardization():
    for kind in ("eight_gaussians", "two_moons", "ring"):
        x, _ = gen_toy_dataset(kind, 40000, seed=1)
        assert np.all(np.abs(x.mean(axis=0)) < 0.02)
        overall = np.mean(x.var(axis=0))
        assert abs(overall - 1.0) < 0.03


def test_ring_radii_within_annulus():
    x, _ = gen_toy_dataset("ring", 5000, seed=2)
    scale = np.sqrt((0.8**2 + 0.8 * 1.2 + 1.2**2) / 3 / 2)
    r = np.linalg.norm(x, axis=1)
    assert np.all(r >= 0.8 / scale - 1e-12)
    assert np.all(r <= 1.2 / scale + 1e-12)


def test_dataset_validation():
    with pytest.raises(InvalidArgument):
        gen_toy_dataset("nope", 10, 0)
    with pytest.raises(InvalidArgument):
        gen_toy_dataset("ring", 0, 0)


# ----------------------------------------------------------------- rewards


def test_score_at_target_is_zero_and_maximal():
    spec = default_reward_spec("eight_gaussians")
    assert score(spec, spec.targets[3], 3) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(2)
        assert score(spec, x, 3) <= 0.0


def test_score_isometry():
    spec = default_reward_spec("eight_gaussians")
    t = spec.targets[0]
    a = t + np.array([0.3, 0.0])
    b = t + np.array([0.0, -0.3])
    assert score(spec, a, 0) == pytest.approx(score(spec, b, 0), abs=1e-15)


def test_score_matches_hand_arithmetic():
    spec = default_reward_spec("eight_gaussians")
    x = np.array([0.25, -1.5])
    d = x - spec.targets[5]
    assert score(spec, x, 5) == pytest.approx(-float(np.sqrt(d @ d)), rel=1e-15)


def test_score_unknown_condition():
    spec = default_reward_spec("eight_gaussians")
    with pytest.raises(InvalidArgument):
        score(spec, np.zeros(2), 99)
    with pytest.raises(InvalidArgument):
        score(spec, np.zeros(2), -1)


def test_score_other_kinds():
    assert score(RewardSpec("ring_radius", radius=1.0), np.array([0.0, 2.0]), 0) == -1.0
    d = np.array([1.0, -1.0])
    assert score(RewardSpec("linear", direction=d), np.array([2.0, 0.5]), 0) == 1.5


@pytest.mark.parametrize("spec", [
    default_reward_spec("eight_gaussians"),
    RewardSpec("ring_radius", radius=1.3),
    RewardSpec("linear", direction=np.array([0.6, -1.7])),
], ids=["mode_distance", "ring_radius", "linear"])
def test_score_batch_equals_per_sample_bitwise(spec):
    rng = np.random.default_rng(21)
    x = 2.0 * rng.standard_normal((20000, 2))
    c = rng.integers(0, 8, size=20000)

    def one(xi, ci):  # the per-sample arithmetic
        if spec.kind == "mode_distance":
            return float(-np.linalg.norm(xi - spec.targets[ci]))
        if spec.kind == "ring_radius":
            return float(-abs(np.linalg.norm(xi) - spec.radius))
        return float(spec.direction @ xi)

    want = np.array([one(xi, ci) for xi, ci in zip(x, c)])
    got = score(spec, x, c)
    assert got.shape == (20000,)
    assert got.tobytes() == want.tobytes()
    assert all(score(spec, x[i], c[i]) == want[i] for i in range(0, 20000, 997))
    assert score(spec, x[:5], 3).tobytes() == score(spec, x[:5], np.full(5, 3)).tobytes()


@pytest.mark.parametrize("c", [1.5, 1.0, np.array([0.0, 1.0])])
def test_score_rejects_non_integer_condition(c):
    # a float id must raise, not be truncated to the integer id below it
    spec = default_reward_spec("eight_gaussians")
    with pytest.raises(InvalidArgument, match="integers"):
        score(spec, np.zeros((2, 2)), c)


def test_score_batch_shape_errors():
    spec = default_reward_spec("eight_gaussians")
    with pytest.raises(InvalidArgument):
        score(spec, np.zeros((3, 2)), np.array([0, 1]))
    with pytest.raises(InvalidArgument):
        score(spec, np.zeros((2, 2, 2)), 0)
    with pytest.raises(InvalidArgument, match="condition 9"):
        score(spec, np.zeros((3, 2)), np.array([0, 9, 1]))


@pytest.mark.parametrize("spec", [
    default_reward_spec("eight_gaussians"),
    RewardSpec("linear", direction=np.array([0.6, -1.7])),
], ids=["mode_distance", "linear"])
@pytest.mark.parametrize("width", [1, 3])
def test_score_rejects_samples_of_another_width(spec, width):
    # (n, 1) rows would broadcast against 2-D targets into a wrong score
    with pytest.raises(InvalidArgument, match=f"samples of width {width}"):
        score(spec, np.zeros((4, width)), 0)
    with pytest.raises(InvalidArgument, match=f"samples of width {width}"):
        score(spec, np.zeros(width), 0)


def test_score_transitivity_random_triples():
    spec = default_reward_spec("eight_gaussians")
    rng = np.random.default_rng(1)
    for _ in range(200):
        xs = rng.standard_normal((3, 2))
        sc = [score(spec, x, 2) for x in xs]
        if sc[0] >= sc[1] and sc[1] >= sc[2]:
            assert sc[0] >= sc[2]


# ------------------------------------------------------------------- pairs


@pytest.fixture(scope="module")
def small_pairs():
    s = make_schedule("cosine", 200)
    rng = np.random.default_rng(5)
    model = make_linear_model(0.2 * np.eye(2), num_conditions=8)
    spec = default_reward_spec("eight_gaussians")
    cfg = SamplerConfig(num_steps=8, guidance_w=0.0)
    return make_preference_pairs(model, s, spec, list(range(8)), 8, cfg, seed=17)


def test_pairs_respect_reward_order(small_pairs):
    t = small_pairs
    assert (t.reward_w >= t.reward_l).all()
    assert (t.reward_w[~t.tie] > t.reward_l[~t.tie]).all()


def test_pairs_deterministic(small_pairs):
    s = make_schedule("cosine", 200)
    model = make_linear_model(0.2 * np.eye(2), num_conditions=8)
    spec = default_reward_spec("eight_gaussians")
    cfg = SamplerConfig(num_steps=8, guidance_w=0.0)
    again = make_preference_pairs(model, s, spec, list(range(8)), 8, cfg, seed=17)
    assert small_pairs.winner.tobytes() == again.winner.tobytes()
    assert small_pairs.reward_w.tobytes() == again.reward_w.tobytes()


def _pairs_and_oracle(w, pairs_per_condition):
    s = make_schedule("cosine", 200)
    model = init_denoiser(DenoiserArch(2, (16, 16), 8, 8), 4)
    spec = default_reward_spec("eight_gaussians")
    cfg = SamplerConfig(num_steps=6, guidance_w=w)
    conditions = [3, 0, 7, 5, 1]
    args = (model, s, spec, conditions, pairs_per_condition, cfg)
    got = make_preference_pairs(*args, seed=9)
    assert len(got) == 5 * pairs_per_condition
    return got, make_preference_pairs(*args, seed=9), oracle_make_preference_pairs(*args, seed=9)


@pytest.mark.parametrize("w", [0.0, 1.0, 0.5])
def test_pairs_match_per_condition_oracle_bytes(w):
    # with each condition's rows filling whole BLAS row blocks, one sampler
    # call over every condition gives each pair the bytes of sampling its
    # condition alone
    got, _, want = _pairs_and_oracle(w, 4)
    for name in ("condition", "winner", "loser", "reward_w", "reward_l", "seed", "tie"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@pytest.mark.parametrize("w", [0.0, 1.0, 0.5])
def test_pairs_of_odd_block_rows_rerun_bitwise_and_match_oracle_closely(w):
    # 10 rows per condition leave tail rows in another BLAS block than when
    # the condition is sampled alone, so the last bit may differ from the
    # per-condition oracle; reruns stay byte-identical
    got, again, want = _pairs_and_oracle(w, 5)
    assert got.winner.tobytes() + got.loser.tobytes() == \
        again.winner.tobytes() + again.loser.tobytes()
    assert got.condition.tolist() == want.condition.tolist()
    assert got.tie.tolist() == want.tie.tolist()
    for name in ("winner", "loser", "reward_w", "reward_l"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=1e-12, atol=1e-12)


def test_pairs_positive_margin(small_pairs):
    margins = small_pairs.reward_w - small_pairs.reward_l
    assert np.mean(margins) > 0


@pytest.mark.parametrize("conditions", [[], range(0)])
def test_pairs_of_no_condition_are_rejected(conditions):
    # an empty table would only be rejected later, by save_pairs or align
    model = make_linear_model(0.2 * np.eye(2), num_conditions=8)
    with pytest.raises(InvalidArgument, match="conditions must be nonempty"):
        make_preference_pairs(model, make_schedule("cosine", 200),
                              default_reward_spec("eight_gaussians"), conditions, 8,
                              SamplerConfig(num_steps=8), seed=17)


# --------------------------------------------------------------- pair files


def test_pair_file_round_trip(tmp_path, small_pairs):
    path = tmp_path / "pairs.jsonl"
    save_pairs(small_pairs, path, default_reward_spec("eight_gaussians"))
    loaded = load_pairs(path)
    assert len(loaded) == len(small_pairs)
    for name in ("winner", "loser", "reward_w", "reward_l", "condition", "tie"):
        assert getattr(loaded, name).tobytes() == getattr(small_pairs, name).tobytes(), name
    header = load_pairs_header(path)
    assert header["schema_version"] == 1
    assert header["dim"] == 2


@pytest.mark.parametrize("spec", [
    default_reward_spec("ring"),
    RewardSpec("ring_radius", radius=1.25),
    RewardSpec("linear", direction=np.array([0.6, -0.8])),
], ids=["mode_distance", "ring_radius", "linear"])
def test_pair_file_header_round_trips_the_reward_spec(tmp_path, small_pairs, spec):
    path = tmp_path / "pairs.jsonl"
    save_pairs(small_pairs, path, spec)
    assert RewardSpec.from_dict(load_pairs_header(path)["reward_spec"]).to_dict() == spec.to_dict()


def test_pair_file_truncated_line_error(tmp_path, small_pairs):
    path = tmp_path / "pairs.jsonl"
    save_pairs(small_pairs, path)
    text = path.read_text().splitlines()
    bad = text[:4]
    bad.append(text[4][: len(text[4]) // 2])
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(PairParseError) as err:
        load_pairs(path)
    assert err.value.line_no == 5


@pytest.mark.parametrize("key, value", [
    ("w", "[NaN, 0.5]"), ("l", "[0.5, Infinity]"), ("rw", "NaN"), ("rl", "-Infinity"),
    ("rw", "1e999"), ("rl", "1" + "0" * 400), ("c", "1.5"), ("w", "3.0"),
    ("l", "[0.5, 1.0, 2.0]"),
])
def test_pair_file_rejects_bad_records(tmp_path, key, value):
    good = {"c": "3", "w": "[0.25, 0.5]", "l": "[-0.5, 1.0]", "rw": "0.5", "rl": "-1.25",
            "seed": "9", "tie": "false"}
    lines = ['{"schema_version": 1, "reward_spec": null, "dim": 2}']
    for rec in (good, {**good, key: value}):
        lines.append("{%s}" % ", ".join(f'"{k}": {v}' for k, v in rec.items()))
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PairParseError) as err:
        load_pairs(path)
    assert err.value.line_no == 3


@pytest.mark.parametrize("key, value, message", [
    ("tie", '"false"', "tie 'false' is not a boolean"),
    ("seed", "2.7", "seed 2.7 is not an integer"),
    ("seed", '"7"', "seed '7' is not an integer"),
    ("w", "[true, 0.5]", "a sample or reward is not a finite number"),
    ("l", "[-0.5, false]", "a sample or reward is not a finite number"),
    ("rw", "true", "a sample or reward is not a finite number"),
    ("rl", "false", "a sample or reward is not a finite number"),
], ids=["tie-string", "seed-float", "seed-string", "w-bool", "l-bool", "rw-bool", "rl-bool"])
def test_pair_file_rejects_fields_of_another_json_type(tmp_path, key, value, message):
    # each once loaded coerced: "false" as a tie, 2.7 as seed 2, "7" as 7, booleans as 1.0/0.0
    good = {"c": "3", "w": "[0.25, 0.5]", "l": "[-0.5, 1.0]", "rw": "0.5", "rl": "-1.25",
            "seed": "9", "tie": "false"}
    lines = ['{"schema_version": 1, "reward_spec": null, "dim": 2}']
    for rec in (good, {**good, key: value}):
        lines.append("{%s}" % ", ".join(f'"{k}": {v}' for k, v in rec.items()))
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PairParseError, match=re.escape(f"line 3: {message}")):
        load_pairs(path)


@pytest.mark.parametrize("head, error", [
    ('{"schema_version": 2, "dim": 0}', VersionError),
    ("[1, 2]", PairParseError),
    ('{"schema_version": 1, "dim": 0}', PairParseError),
    ("", PairParseError),
], ids=["schema_version=2", "list", "dim=0", "empty"])
def test_load_pairs_header_rejects_what_load_pairs_rejects(tmp_path, head, error):
    path = tmp_path / "pairs.jsonl"
    path.write_text(head + "\n" if head else "")
    messages = []
    for load in (load_pairs, load_pairs_header):
        with pytest.raises(error) as err:
            load(path)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "1.0", "string"])
def test_pair_file_schema_version_must_be_the_integer_1(tmp_path, small_pairs, version):
    path = tmp_path / "pairs.jsonl"
    save_pairs(small_pairs, path)
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    head["schema_version"] = version
    lines[0] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(VersionError, match="unsupported pair schema version"):
        load_pairs(path)


@pytest.mark.parametrize("c, ok", [(-1, True), (7, True), (8, False), (99, False), (-2, False)])
def test_pair_file_condition_range_checked_against_the_model(tmp_path, small_pairs, c, ok):
    path = tmp_path / "pairs.jsonl"
    save_pairs(small_pairs, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[4])
    rec["c"] = c
    lines[4] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    assert len(load_pairs(path)) == len(small_pairs)  # no model, no range
    if ok:
        assert load_pairs(path, num_conditions=8).condition[3] == c
        return
    with pytest.raises(PairParseError, match=r"out of range \[-1, 8\)") as err:
        load_pairs(path, num_conditions=8)
    assert err.value.line_no == 5


@pytest.mark.parametrize("header", ["[1]", '"x"', "3", "null"])
def test_pair_file_header_must_be_an_object(tmp_path, header):
    path = tmp_path / "pairs.jsonl"
    path.write_text(header + "\n")
    with pytest.raises(PairParseError, match="header is not a JSON object") as err:
        load_pairs(path)
    assert err.value.line_no == 1


def test_pair_file_dim_checked_against_the_model(tmp_path, small_pairs):
    path = tmp_path / "pairs.jsonl"
    save_pairs(small_pairs, path)
    assert len(load_pairs(path, input_dim=2)) == len(small_pairs)
    with pytest.raises(PairParseError, match="pairs have dim 2 but the model's input_dim is 3") as err:
        load_pairs(path, input_dim=3)
    assert err.value.line_no == 1
    # with no dim in the header, every record is held to the model's
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    del head["dim"]
    lines[0] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")
    assert len(load_pairs(path)) == len(small_pairs)
    with pytest.raises(PairParseError, match="expected 3, got 2") as err:
        load_pairs(path, input_dim=3)
    assert err.value.line_no == 2


@pytest.mark.parametrize("dim", [True, False, 2.0, "2", 0, -2, None, [2]])
@pytest.mark.parametrize("input_dim", [None, 2])
def test_pair_file_header_dim_must_be_a_positive_integer(tmp_path, small_pairs, dim, input_dim):
    # "dim": true once loaded 1-D pairs and "dim": 2.0 passed input_dim=2
    path = tmp_path / "pairs.jsonl"
    save_pairs(small_pairs, path)
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    head["dim"] = dim
    lines[0] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")
    for load in (load_pairs, oracle_load_pairs):
        with pytest.raises(PairParseError, match=r"header dim .* is not a positive integer") as err:
            load(path, None, input_dim)
        assert err.value.line_no == 1


def test_pair_file_version_mismatch(tmp_path, small_pairs):
    path = tmp_path / "pairs.jsonl"
    save_pairs(small_pairs, path)
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    head["schema_version"] = 99
    lines[0] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(VersionError):
        load_pairs(path)


def test_pair_file_written_by_independent_serializer(tmp_path):
    # hand-rolled writer following the documented schema, bypassing save_pairs
    rng = np.random.default_rng(8)
    w = rng.standard_normal(2)
    l = rng.standard_normal(2)
    lines = [
        '{"schema_version": 1, "reward_spec": null, "dim": 2}',
        '{"c": 3, "w": [%r, %r], "l": [%r, %r], "rw": 0.5, "rl": -1.25, "seed": 9, "tie": false}'
        % (float(w[0]), float(w[1]), float(l[0]), float(l[1])),
    ]
    path = tmp_path / "foreign.jsonl"
    path.write_text("\n".join(lines) + "\n")
    pairs = load_pairs(path)
    assert len(pairs) == 1
    assert pairs.condition.tolist() == [3]
    assert pairs.winner[0].tobytes() == w.tobytes()
    assert pairs.loser[0].tobytes() == l.tobytes()
    assert (pairs.reward_w[0], pairs.reward_l[0]) == (0.5, -1.25)
