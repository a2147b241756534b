"""PairTable, the column form of a pair set, and the pair file written and
read from columns: the table's sequence behavior, the writer's bytes and
refusals, the loader's parity with the per-record oracle under mutated
files, and align's parameters from a table equal to those from its pairs."""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from inpo.data import (
    PairTable,
    PreferencePair,
    default_reward_spec,
    load_pairs,
    make_preference_pairs,
    save_pairs,
)
from inpo.denoiser import DenoiserArch, init_denoiser, params_to_bytes
from inpo.errors import InvalidArgument
from inpo.preference import DeltaStrategy
from inpo.sampler import SamplerConfig
from inpo.schedule import make_schedule
from inpo.trainer import AlignConfig, align, sft_ref_init

from conftest import make_linear_model, oracle_load_pairs, oracle_save_pairs

COLUMNS = ("condition", "winner", "loser", "reward_w", "reward_l", "seed", "tie")


@pytest.fixture(scope="module")
def table():
    s = make_schedule("cosine", 200)
    model = make_linear_model(0.2 * np.eye(2), num_conditions=8)
    cfg = SamplerConfig(num_steps=8, guidance_w=0.0)
    return make_preference_pairs(model, s, default_reward_spec("eight_gaussians"),
                                 list(range(8)), 4, cfg, seed=17)


def _pair(c=0, w=(0.5, -0.25), l=(1.0, 2.0), rw=0.5, rl=-1.0, seed=3, **kw):
    return PreferencePair(c, np.array(w), np.array(l), rw, rl, seed, **kw)


# ------------------------------------------------------------------ table


def test_make_preference_pairs_returns_typed_columns(table):
    assert isinstance(table, PairTable)
    assert len(table) == 32 and table.dim == 2 and table.source == "model_sampled"
    for name, dtype, shape in [("condition", np.int64, (32,)), ("winner", np.float64, (32, 2)),
                               ("loser", np.float64, (32, 2)), ("reward_w", np.float64, (32,)),
                               ("reward_l", np.float64, (32,)), ("seed", np.int64, (32,)),
                               ("tie", np.bool_, (32,))]:
        col = getattr(table, name)
        assert col.dtype == dtype and col.shape == shape, name
    assert table.condition.tolist() == np.repeat(np.arange(8), 4).tolist()
    assert (table.seed == 17).all()


def test_an_index_gives_a_pair_over_row_views(table):
    p = table[5]
    assert isinstance(p, PreferencePair)
    assert np.shares_memory(p.winner, table.winner) and np.shares_memory(p.loser, table.loser)
    assert p.winner.tobytes() == table.winner[5].tobytes()
    assert (p.condition, p.reward_w, p.reward_l, p.seed, p.source, p.tie) == (
        int(table.condition[5]), float(table.reward_w[5]), float(table.reward_l[5]), 17,
        "model_sampled", bool(table.tie[5]))
    assert type(p.condition) is int and type(p.tie) is bool and type(p.reward_w) is float
    assert table[-1].winner.tobytes() == table.winner[31].tobytes()
    with pytest.raises(IndexError):
        table[32]


def test_iteration_and_slices(table):
    pairs = list(table)
    assert len(pairs) == len(table)
    for i, p in enumerate(pairs):
        q = table[i]
        assert p.winner.tobytes() == q.winner.tobytes()
        assert (p.condition, p.reward_w, p.reward_l, p.seed, p.source, p.tie) == \
            (q.condition, q.reward_w, q.reward_l, q.seed, q.source, q.tie)
    part = table[3:9:2]
    assert isinstance(part, PairTable) and len(part) == 3
    assert part.winner.tobytes() == table.winner[3:9:2].tobytes()
    assert part == PairTable.of(pairs[3:9:2])


def test_of_returns_a_table_unchanged_and_stacks_pairs(table):
    assert PairTable.of(table) is table
    again = PairTable.of(list(table))
    assert again == table
    for name in COLUMNS:
        a, b = getattr(again, name), getattr(table, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert PairTable.of(iter(table)) == table


def test_of_checks_conditions_dims_and_sources():
    with pytest.raises(InvalidArgument, match="integers"):
        PairTable.of([_pair(), _pair(c=1.5)])
    with pytest.raises(InvalidArgument, match="differ in shape"):
        PairTable.of([_pair(), _pair(w=(0.0, 1.0, 2.0), l=(0.0, 1.0, 2.0))])
    with pytest.raises(InvalidArgument, match="differ in shape"):
        PairTable.of([_pair(l=(1.0, 2.0, 3.0))])
    with pytest.raises(InvalidArgument, match="column winner must be 2-D"):
        PairTable.of([_pair(w=1.0, l=2.0)])
    with pytest.raises(InvalidArgument, match="mix sources"):
        PairTable.of([_pair(), _pair(source="external")])
    with pytest.raises(InvalidArgument, match="seeds must fit in int64"):
        PairTable.of([_pair(seed=1 << 63)])
    # non-finite values are kept: align names the pair that carries them
    t = PairTable.of([_pair(w=(np.nan, 0.0), rw=np.inf)])
    assert np.isnan(t.winner[0, 0]) and t.reward_w[0] == np.inf
    assert len(PairTable.of([])) == 0


def test_columns_are_checked(table):
    cols = {name: getattr(table, name) for name in COLUMNS}
    for name, bad in [("condition", table.condition.astype(np.float64)),
                      ("winner", table.winner[:, 0]), ("loser", table.loser[:, :1]),
                      ("tie", table.tie[:-1]), ("seed", table.seed.astype(np.int32))]:
        with pytest.raises(InvalidArgument):
            PairTable(**{**cols, name: bad})


def test_tables_compare_by_columns_and_source(table):
    assert table == table[:]
    assert table != table[1:]
    cols = {name: getattr(table, name) for name in COLUMNS}
    assert table != PairTable(**cols, source="external")
    with pytest.raises(TypeError):
        hash(table)


def test_save_writes_the_per_pair_bytes(tmp_path, table):
    spec = default_reward_spec("eight_gaussians")
    paths = [tmp_path / name for name in ("table.jsonl", "list.jsonl", "oracle.jsonl")]
    save_pairs(table, paths[0], spec)
    save_pairs(list(table), paths[1], spec)
    oracle_save_pairs(list(table), paths[2], spec)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_save_format_is_pinned(tmp_path):
    pairs = [_pair(c=3, w=(0.1, -2.5), l=(1e-300, 5e20), rw=-0.0, rl=-1.25, seed=9),
             _pair(c=-1, w=(1.0, 2.0), l=(1.0, 2.0), rw=0.5, rl=0.5, seed=0, tie=True)]
    path = tmp_path / "pinned.jsonl"
    save_pairs(pairs, path)
    assert path.read_text() == (
        '{"schema_version": 1, "reward_spec": null, "dim": 2}\n'
        '{"c": 3, "w": [0.1, -2.5], "l": [1e-300, 5e+20], "rw": -0.0, "rl": -1.25, '
        '"seed": 9, "tie": false}\n'
        '{"c": -1, "w": [1.0, 2.0], "l": [1.0, 2.0], "rw": 0.5, "rl": 0.5, "seed": 0, '
        '"tie": true}\n')


@pytest.mark.parametrize("bad, match", [
    (_pair(w=(np.nan, 0.0)), "pair 1 has a non-finite sample or reward"),
    (_pair(l=(0.0, -np.inf)), "pair 1 has a non-finite sample or reward"),
    (_pair(rw=np.nan), "pair 1 has a non-finite sample or reward"),
    (_pair(rl=np.inf), "pair 1 has a non-finite sample or reward"),
    (_pair(w=(0.0, 1.0, 2.0), l=(0.0, 1.0, 2.0)), "differ in shape"),
    (_pair(c=1.5), "integers"),
])
def test_save_refuses_pairs_the_loader_would_reject(tmp_path, bad, match):
    path = tmp_path / "pairs.jsonl"
    with pytest.raises(InvalidArgument, match=match):
        save_pairs([_pair(), bad], path)
    assert not path.exists()


def test_save_refuses_an_empty_set(tmp_path):
    with pytest.raises(InvalidArgument, match="nonempty"):
        save_pairs(PairTable.of([]), tmp_path / "pairs.jsonl")


# ------------------------------------------------------------- the loader


def test_load_returns_external_columns(tmp_path, table):
    path = tmp_path / "pairs.jsonl"
    save_pairs(table, path)
    loaded = load_pairs(path, num_conditions=8, input_dim=2)
    assert isinstance(loaded, PairTable) and loaded.source == "external"
    for name in COLUMNS:
        a, b = getattr(loaded, name), getattr(table, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert getattr(loaded, name).flags.c_contiguous


def test_load_of_a_header_only_file_is_empty(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"schema_version": 1, "reward_spec": null, "dim": 2}\n\n')
    assert len(load_pairs(path)) == 0 and oracle_load_pairs(path) == []


def _record(rng_vals):
    c, w0, w1, l0, l1, rw, rl, seed, tie = rng_vals
    return {"c": str(c), "w": f"[{w0!r}, {w1!r}]", "l": f"[{l0!r}, {l1!r}]", "rw": repr(rw),
            "rl": repr(rl), "seed": str(seed), "tie": "true" if tie else "false"}


_FLOATS = st.floats(-3.0, 3.0, allow_nan=False)
_RECORDS = st.tuples(st.integers(-1, 3), _FLOATS, _FLOATS, _FLOATS, _FLOATS, _FLOATS, _FLOATS,
                     st.integers(0, 2**31), st.booleans()).map(_record)
_BAD_NUMBERS = ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400, "true", "null", '"1.5"',
                "[1.0]", "{}"]
_RETYPES = ['"x"', '""', "null", "3.5", "[1]", "[]", "{}", '{"a": 1}', "true", "[[1, 2]]",
            "-7", '"3"', "1e999", "NaN"]
_RECORD_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(["c", "w", "l", "rw", "rl", "seed", "tie"])),
    st.tuples(st.just("retype"), st.sampled_from(["c", "w", "l", "rw", "rl", "seed", "tie"]),
              st.sampled_from(_RETYPES)),
    st.tuples(st.just("entry"), st.sampled_from(["w", "l"]), st.integers(0, 1),
              st.sampled_from(_BAD_NUMBERS)),
    st.tuples(st.just("retype"), st.sampled_from(["rw", "rl"]), st.sampled_from(_BAD_NUMBERS)),
    st.tuples(st.just("retype"), st.sampled_from(["w", "l"]),
              st.sampled_from(["[0.5]", "[0.5, 1.0, 2.0]", "[true, 1]", "[2, -3]"])),
    st.tuples(st.just("retype"), st.just("c"),
              st.sampled_from(["true", "false", "1.5", '"3"', "-2", "4", "99", "3.0",
                               str(2**63), str(-2**63 - 1), str(10**30)])),
    st.tuples(st.just("retype"), st.just("seed"),
              st.sampled_from([str(2**63), str(2**63 - 1), str(-2**63 - 1), str(10**30),
                               '"7"', "1.5", "true", '"x"', "NaN", "1e999"])),
    st.tuples(st.just("not_object"), st.sampled_from(["[1, 2]", "3", "null", '"s"', "true"])),
)
_LINE_MUTATIONS = st.one_of(
    st.tuples(st.just("blank"), st.sampled_from(["", "   ", "\t"])),
    st.tuples(st.just("truncate"), st.floats(0.05, 0.95)),
    st.tuples(st.just("join")),
    st.tuples(st.just("split"), st.floats(0.05, 0.95)),
)


@st.composite
def _pair_files(draw):
    records = draw(st.lists(_RECORDS, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(records) - 1))
        m = draw(_RECORD_MUTATIONS)
        if not isinstance(records[j], dict):
            continue
        rec = dict(records[j])
        if m[0] == "drop":
            rec.pop(m[1], None)
        elif m[0] == "retype":
            rec[m[1]] = m[2]
        elif m[0] == "entry":
            if m[1] not in rec:  # an earlier mutation dropped the field
                continue
            vals = json.loads(rec[m[1]]) if rec[m[1]].startswith("[") else [0.0, 0.0]
            toks = [json.dumps(v) for v in vals] or ["0.0"]
            toks[min(m[2], len(toks) - 1)] = m[3]
            rec[m[1]] = "[" + ", ".join(toks) + "]"
        else:
            rec = m[1]
        records[j] = rec
    lines = ["{" + ", ".join(f'"{k}": {v}' for k, v in r.items()) + "}" if isinstance(r, dict)
             else r for r in records]
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, len(lines) - 1))
        m = draw(_LINE_MUTATIONS)
        if m[0] == "blank":
            lines.insert(j, m[1])
        elif m[0] == "truncate":
            lines[j] = lines[j][: int(len(lines[j]) * m[1])]
        elif m[0] == "join" and j + 1 < len(lines):
            lines[j: j + 2] = [lines[j] + " " + lines[j + 1]]
        elif m[0] == "split":
            k = int(len(lines[j]) * m[1])
            lines[j: j + 1] = [lines[j][:k], lines[j][k:]]
    header = {"schema_version": 1, "reward_spec": None}
    if draw(st.booleans()):
        header["dim"] = draw(st.sampled_from([2, 2, 2, 3, 2.0]))
    num_conditions = draw(st.sampled_from([None, 4]))
    input_dim = draw(st.sampled_from([None, 2]))
    return "\n".join([json.dumps(header), *lines]) + "\n", num_conditions, input_dim


def _outcome(load, path, num_conditions, input_dim):
    try:
        return "ok", load(path, num_conditions, input_dim)
    except Exception as e:  # noqa: BLE001 - the kind of failure is what is compared
        return "error", (type(e), getattr(e, "line_no", None), str(e))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "pairs.jsonl"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_pair_files())
def test_load_matches_the_per_record_oracle(fuzz_path, case):
    text, num_conditions, input_dim = case
    fuzz_path.write_text(text)
    got = _outcome(load_pairs, fuzz_path, num_conditions, input_dim)
    want = _outcome(oracle_load_pairs, fuzz_path, num_conditions, input_dim)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    table, pairs = got[1], want[1]
    assert isinstance(table, PairTable) and len(table) == len(pairs)
    if pairs:
        ref = PairTable.of(pairs)
        assert table.source == ref.source == "external"
        for name in COLUMNS:
            a, b = getattr(table, name), getattr(ref, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_named_faults_raise_the_oracle_error_at_their_line(tmp_path):
    head = '{"schema_version": 1, "reward_spec": null, "dim": 2}'
    good = '{"c": 1, "w": [0.5, 1.0], "l": [1.0, 2.0], "rw": 0.5, "rl": 0.25, "seed": 3, "tie": false}'
    cases = {
        good.replace('"seed": 3', f'"seed": {2**63}'): "seed 9223372036854775808 does not fit",
        good.replace('"c": 1', '"c": 1.5'): "condition 1.5 is not an integer",
        good.replace('"c": 1', '"c": true'): "condition True is not an integer",
        good.replace('"w": [0.5, 1.0]', '"w": [NaN, 1.0]'): "non-finite sample or reward",
        good.replace('"w": [0.5, 1.0]', '"w": ""'): "could not convert string to float",
        good.replace('"w": [0.5, 1.0]', '"w": 3.5'): "must be an iterable",
        good.replace(', "tie": false', ""): "'tie'",
        good + " " + good: "Extra data",
    }
    path = tmp_path / "pairs.jsonl"
    for record, message in cases.items():
        path.write_text("\n".join([head, good, "", record, good]) + "\n")
        got = _outcome(load_pairs, path, 4, None)
        assert got == _outcome(oracle_load_pairs, path, 4, None)
        assert got[0] == "error" and got[1][1] == 4 and message in got[1][2], got
    # a later line's fault does not hide an earlier line's of another kind
    path.write_text("\n".join([head, good.replace('"c": 1', '"c": 9'),
                               good.replace('"rw": 0.5', '"rw": "x"')]) + "\n")
    assert _outcome(load_pairs, path, 4, None)[1][1:] == (2, "line 2: condition 9 out of range [-1, 4)")


_GOOD = {"c": "1", "w": "[0.5, 1.0]", "l": "[1.0, 2.0]", "rw": "0.5", "rl": "0.25",
         "seed": "3", "tie": "false"}
# one fault per entry: a field and its new JSON text, None to drop the field
_FIELD_FAULTS = [
    ("c", '"x"'), ("c", "null"), ("c", "99"), ("c", "1.5"), ("c", '"3"'), ("c", "true"),
    ("c", str(2**63)), ("c", None), ("w", None), ("w", "3.5"), ("w", '""'), ("w", "[NaN, 1.0]"),
    ("w", "[0.5]"), ("w", '"x"'), ("l", None), ("l", "[1.0, Infinity]"), ("l", "{}"),
    ("rw", None), ("rw", '"x"'), ("rw", "1e999"), ("rw", "1" + "0" * 400), ("rl", "null"),
    ("seed", None), ("seed", '"x"'), ("seed", str(2**63)), ("seed", "NaN"), ("tie", None),
]


def _faulty_record(*faults):
    rec = dict(_GOOD)
    for key, text in faults:
        if text is None:
            rec.pop(key)
        else:
            rec[key] = text
    return "{" + ", ".join(f'"{k}": {v}' for k, v in rec.items()) + "}"


def test_every_two_faults_of_a_record_raise_as_the_oracle_does(tmp_path):
    # which of a record's faults is reported depends on the order in which
    # its fields are read and checked; the column checks keep the oracle's
    head = '{"schema_version": 1, "reward_spec": null, "dim": 2}'
    good = _faulty_record()
    path = tmp_path / "pairs.jsonl"
    for a in _FIELD_FAULTS:
        for b in _FIELD_FAULTS:
            if a[0] == b[0]:
                continue
            path.write_text("\n".join([head, good, _faulty_record(a, b), good]) + "\n")
            for num_conditions in (None, 4):
                got = _outcome(load_pairs, path, num_conditions, None)
                assert got == _outcome(oracle_load_pairs, path, num_conditions, None), (a, b)
                assert got[0] == "error" and got[1][1] == 3, (a, b)


# ------------------------------------------------------------- align parity


@pytest.mark.parametrize("method, delta, ref_init", [
    ("inpo", DeltaStrategy("inversion", n=3), "base"),
    ("dpo", DeltaStrategy("gaussian"), "base"),
    ("sft", DeltaStrategy("gaussian"), "base"),
    ("inpo", DeltaStrategy("inversion", n=3), "sft_winners"),
])
def test_align_from_a_table_equals_align_from_its_pairs(tmp_path, table, method, delta,
                                                        ref_init):
    path = tmp_path / "pairs.jsonl"
    save_pairs(table, path)
    s = make_schedule("cosine", 200)
    base = init_denoiser(DenoiserArch(2, (12,), 8, 8), 7)
    cfg = AlignConfig(method=method, delta=delta, steps=4, batch_pairs=8, warmup_steps=2,
                      seed=5, ref_init=ref_init)
    out = []
    for pairs in (load_pairs(path), list(load_pairs(path))):
        ref = base
        if ref_init == "sft_winners":
            ref = sft_ref_init(base, pairs, s, steps=3, lr=1e-3, seed=5, batch=8)
        out.append(params_to_bytes(align(base, ref, pairs, s, cfg), "cosine", 200))
    assert out[0] == out[1]
