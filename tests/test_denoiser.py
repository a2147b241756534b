import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inpo.denoiser as denoiser_mod
from inpo.autodiff import Var
from inpo.denoiser import (
    NULL_CONDITION,
    DenoiserArch,
    _cond_rows,
    _pack_header,
    DenoiserParams,
    BoundWorkspace,
    NoisePredictor,
    eps_forward,
    init_denoiser,
    load_params,
    params_from_bytes,
    params_to_bytes,
    predict_noise,
    save_params,
    StepWorkspace,
    TapeParams,
    time_embedding,
    value_and_grad,
)
from inpo.errors import InvalidArgument, NumericError, VersionError
from inpo.preference import sft_terms
from inpo.schedule import SCHEDULE_KINDS, make_schedule

from conftest import finite_diff, make_linear_model, max_rel_err

ARCH = DenoiserArch(2, (16,), 4, 8)


def test_init_deterministic():
    a = init_denoiser(ARCH, 5)
    b = init_denoiser(ARCH, 5)
    assert a.vec.tobytes() == b.vec.tobytes()
    for x, y in zip(a.flat(), b.flat()):
        assert x.tobytes() == y.tobytes()


def test_init_seed_changes_params():
    a = init_denoiser(ARCH, 5)
    b = init_denoiser(ARCH, 6)
    assert a.vec.tobytes() != b.vec.tobytes()


def test_param_count_closed_form():
    arch = DenoiserArch(2, (64, 64), 8, 16)
    p = init_denoiser(arch, 0)
    d_in = 2 + 16 + 16
    expect = (d_in * 64 + 64) + (64 * 64 + 64) + (64 * 2 + 2) + (8 + 1) * 16
    assert p.vec.size == expect == arch.param_count()


def test_arch_validation():
    with pytest.raises(InvalidArgument):
        DenoiserArch(0, (4,), 1, 8)
    with pytest.raises(InvalidArgument):
        DenoiserArch(2, (4,), 0, 8)
    with pytest.raises(InvalidArgument):
        DenoiserArch(2, (4,), 1, 7)


def test_linear_probe_matches_matrix_multiply():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    p = make_linear_model(A)
    x = rng.standard_normal((5, 3))
    out = predict_noise(p, x, 17, 0, guidance_w=1.0)
    assert np.allclose(out, x @ A.T, rtol=0, atol=1e-15)


def test_cfg_w0_equals_null_condition():
    p = init_denoiser(ARCH, 1)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 2))
    a = predict_noise(p, x, 10, 2, guidance_w=0.0)
    b = predict_noise(p, x, 10, NULL_CONDITION, guidance_w=0.0)
    c = predict_noise(p, x, 10, NULL_CONDITION, guidance_w=5.0)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_cfg_w1_equals_conditional_branch():
    p = init_denoiser(ARCH, 1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 2))
    rows = np.full(3, 2)
    direct = eps_forward(p, x, np.full(3, 10), rows)
    assert np.array_equal(predict_noise(p, x, 10, 2, guidance_w=1.0), direct)


def test_cfg_affine_in_w():
    p = init_denoiser(ARCH, 3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 2))
    ws = (0.3, 0.7, 2.0)
    outs = [predict_noise(p, x, 55, 1, guidance_w=w) for w in ws]
    # three points on a line: out(w1) interpolated from out(w0), out(w2)
    lam = (ws[1] - ws[0]) / (ws[2] - ws[0])
    interp = outs[0] + lam * (outs[2] - outs[0])
    assert np.max(np.abs(outs[1] - interp)) < 1e-10


def test_predict_noise_pure():
    p = init_denoiser(ARCH, 4)
    x = np.random.default_rng(4).standard_normal((2, 2))
    a = predict_noise(p, x, 7, 1, guidance_w=3.0)
    b = predict_noise(p, x, 7, 1, guidance_w=3.0)
    assert a.tobytes() == b.tobytes()


def test_predict_noise_errors():
    p = init_denoiser(ARCH, 4)
    with pytest.raises(InvalidArgument):
        predict_noise(p, np.zeros(3), 0, 0)
    with pytest.raises(NumericError):
        predict_noise(p, np.array([np.nan, 0.0]), 0, 0)
    with pytest.raises(InvalidArgument):
        predict_noise(p, np.zeros(2), 0, 99)
    with pytest.raises(InvalidArgument, match="DenoiserParams"):
        predict_noise(lambda x, t, c, w: x, np.zeros(2), 0, 0)


@pytest.mark.parametrize("c", [1.5, 1.0, np.array([0.0, 1.0, 2.0])])
def test_non_integer_condition_rejected_not_truncated(c):
    # a float id must raise, not be truncated to the integer id below it
    p = init_denoiser(ARCH, 4)
    x = np.random.default_rng(5).standard_normal((3, 2))
    with pytest.raises(InvalidArgument, match="integers"):
        predict_noise(p, x, 10, c, 1.0)
    with pytest.raises(InvalidArgument, match="integers"):
        NoisePredictor(p, 2.5, 3).bind(c, [[10]])


def test_value_and_grad_constant_loss_is_zero():
    # a leaf given a zero gradient and a loss that never reaches the leaf
    # both come back as zeros laid out like the parameters
    p = init_denoiser(ARCH, 5)
    for loss in (lambda tape: Var(0.0, tape.leaf, lambda g: g * np.zeros_like(tape.leaf.data)),
                 lambda tape: Var(0.0)):
        val, grad = value_and_grad(p, loss)
        assert val == 0.0
        assert [g.shape for g in grad.flat()] == [a.shape for a in p.flat()]
        assert np.all(grad.vec == 0)


def test_value_and_grad_quadratic_probe():
    # (w0[0, 0] - a)^2 + 3 * embed[1, 2] through one node over the leaf whose
    # VJP writes the embedding's gradient before the weight's; each lands in
    # its own view of the gradient vector
    p = init_denoiser(ARCH, 5)
    a = 0.37

    def loss(tape):
        w, e = tape.params.weights[0], tape.params.cond_embed
        r = w[0, 0] - a

        def vjp(g):
            grad = DenoiserParams(tape.arch, np.zeros_like(tape.leaf.data))
            grad.cond_embed[1, 2] = 3.0 * g
            grad.weights[0][0, 0] = 2.0 * r * g
            return grad.vec

        return Var(r * r + 3.0 * e[1, 2], tape.leaf, vjp)

    val, grad = value_and_grad(p, loss)
    want = (p.weights[0][0, 0] - a) ** 2 + 3.0 * p.cond_embed[1, 2]
    assert val == pytest.approx(want, rel=1e-12)
    assert grad.weights[0][0, 0] == pytest.approx(2 * (p.weights[0][0, 0] - a), rel=1e-12)
    assert np.all(grad.weights[0].reshape(-1)[1:] == 0)
    assert grad.cond_embed[1, 2] == 3.0
    assert np.count_nonzero(grad.cond_embed) == 1
    assert all(np.all(g == 0) for g in grad.flat()[1:-1])


def test_value_and_grad_nonfinite_raises():
    p = init_denoiser(ARCH, 5)
    with pytest.raises(NumericError):
        value_and_grad(p, lambda tape: Var(np.inf, tape.leaf, lambda g: g))


def test_value_and_grad_returns_a_new_vector_per_call():
    # the trainer adds later windows' gradients into the first one in place,
    # so no gradient may share memory with the parameters or another call's
    p = init_denoiser(ARCH, 5)
    s = make_schedule("cosine", 50)
    x, t, c = np.ones((3, 2)), np.array([4, 9, 30]), np.array([0, 1, 3])

    def loss(tape):
        return sft_terms(tape, s, x, t, c, c, np.zeros((3, 2)))

    before = p.vec.copy()
    _, a = value_and_grad(p, loss)
    _, b = value_and_grad(p, loss)
    assert a.vec.tobytes() == b.vec.tobytes()
    assert not np.shares_memory(a.vec, b.vec)
    assert not np.shares_memory(a.vec, p.vec) and p.vec.tobytes() == before.tobytes()


def test_value_and_grad_fills_the_workspace_gradient():
    # a loss whose forward runs in a StepWorkspace gets the workspace's
    # vector back, overwritten in place with the bytes a fresh call returns
    p = init_denoiser(ARCH, 5)
    s = make_schedule("cosine", 50)
    c = np.array([0, 1, 3])
    ws = StepWorkspace(ARCH, 3)
    ws.grad.vec[:] = np.nan
    for x, t in ((np.ones((3, 2)), np.array([4, 9, 30])), (np.zeros((3, 2)), np.array([7, 2, 5]))):
        def loss(tape, ws=None):
            return sft_terms(tape, s, x, t, c, c, np.ones((3, 2)), ws)

        _, fresh = value_and_grad(p, loss)
        _, filled = value_and_grad(p, lambda tape: loss(tape, ws))
        assert filled.vec is ws.grad.vec
        assert filled.vec.tobytes() == fresh.vec.tobytes()


@pytest.mark.parametrize("bad_row", [-1, 5])
@pytest.mark.parametrize("taped", [False, True])
def test_eps_forward_rejects_rows_outside_the_table(bad_row, taped):
    # the workspace gathers rows unchecked, so a one-off or taped forward
    # checks them first: -1 is no alias of the null row (4), and 5 is past it
    p = init_denoiser(ARCH, 5)
    model = TapeParams(p) if taped else p
    with pytest.raises(InvalidArgument, match=r"embedding row out of range \[0, 4\]"):
        eps_forward(model, np.ones((3, 2)), np.array([4, 9, 30]), np.array([0, bad_row, 4]))


def test_step_workspace_must_match_the_batch():
    p = init_denoiser(ARCH, 5)
    with pytest.raises(InvalidArgument, match="workspace of 4 rows for a batch of 3"):
        eps_forward(TapeParams(p), np.ones((3, 2)), np.array([4, 9, 30]), np.zeros(3, int),
                    ws=StepWorkspace(ARCH, 4))


@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)], ids=["none", "6", "6-5"])
def test_gradient_check_prediction_mse(hidden):
    # reverse-mode gradients of the denoising head (a squared-error loss
    # under constant weights) through the full network vs central finite
    # differences, 20 random draws
    arch = DenoiserArch(2, hidden, 3, 4)
    s = make_schedule("cosine", 50)
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        p = init_denoiser(arch, trial)
        x = rng.standard_normal((5, 2))
        t = rng.integers(0, 50, size=5)
        c = rng.integers(-1, 3, size=5)
        rows = _cond_rows(c, 3)
        target = rng.standard_normal((5, 2))

        def loss(model):
            return sft_terms(model, s, x, t, c, rows, target)

        _, ad = value_and_grad(p, loss)
        fd = finite_diff(p, lambda q: float(loss(q)))
        worst = max(worst, max_rel_err(ad, fd))
    assert worst < 1e-4


def test_params_file_round_trip(tmp_path):
    p = init_denoiser(DenoiserArch(2, (8, 4), 3, 6), 9)
    path = tmp_path / "model.params"
    save_params(path, p, "cosine", 1000)
    q, kind, T = load_params(path)
    assert kind == "cosine" and T == 1000
    assert q.arch == p.arch and q.vec.tobytes() == p.vec.tobytes()
    for a, b in zip(p.flat(), q.flat()):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_save_params_refuses_what_load_params_rejects(tmp_path, bad):
    # a non-finite vector would write a file that no command can load
    p = init_denoiser(ARCH, 0)
    p.biases[0][1] = bad
    path = tmp_path / "model.params"
    with pytest.raises(NumericError, match="non-finite"):
        save_params(path, p, "cosine", 100)
    assert not path.exists()


def test_params_views_cannot_be_rebound():
    p = init_denoiser(ARCH, 0)
    with pytest.raises(TypeError):
        p.weights[0] = np.zeros_like(p.weights[0])
    with pytest.raises(TypeError):
        p.biases[0] = np.zeros_like(p.biases[0])
    for name in ("cond_embed", "arch", "vec", "weights"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, getattr(p, name))


def test_params_arrays_are_views_of_one_vector():
    p = init_denoiser(DenoiserArch(2, (8, 4), 3, 6), 9)
    assert p.vec.shape == (p.arch.param_count(),)
    assert all(np.shares_memory(a, p.vec) for a in p.flat())
    assert np.concatenate(p.flat(), axis=None).tobytes() == p.vec.tobytes()
    with pytest.raises(InvalidArgument):
        DenoiserParams(p.arch, p.vec[:-1].copy())
    with pytest.raises(InvalidArgument):
        DenoiserParams.from_arrays(p.arch, p.weights, p.biases, p.cond_embed[1:])


def test_write_through_view_reaches_params_bytes():
    p = init_denoiser(ARCH, 0)
    before = params_to_bytes(p, "cosine", 100)
    p.weights[1][3, 1] = 5.0
    p.biases[0][2] += 1.0
    p.cond_embed[-1] = 0.25
    after = params_to_bytes(p, "cosine", 100)
    assert after != before
    q = params_from_bytes(after)[0]
    assert q.weights[1][3, 1] == 5.0
    assert q.biases[0][2] == p.biases[0][2]
    assert np.all(q.cond_embed[-1] == 0.25)


def test_copy_shares_no_memory():
    p = init_denoiser(ARCH, 0)
    q = p.copy()
    assert q.vec.tobytes() == p.vec.tobytes()
    for a in q.flat() + [q.vec]:
        assert not np.shares_memory(a, p.vec)
    q.weights[0][0, 0] += 1.0
    assert q.vec.tobytes() != p.vec.tobytes()


def test_params_bytes_match_per_array_writer():
    p = init_denoiser(DenoiserArch(2, (8, 4), 3, 6), 9)
    want = _pack_header(p, "linear_beta", 300) + b"".join(a.tobytes() for a in p.flat())
    assert params_to_bytes(p, "linear_beta", 300) == want


def test_params_header_bytes_are_pinned():
    # the version-1 header written out field by field, little-endian
    p = init_denoiser(DenoiserArch(2, (64, 32), 8, 16), 0)
    header = bytes.fromhex(
        "494e504f44454e5a"  # magic b"INPODENZ"
        "01000000"  # version 1
        "02000000"  # input_dim 2
        "02000000"  # 2 hidden layers
        "40000000" "20000000"  # of widths 64 and 32
        "08000000"  # 8 conditions
        "10000000"  # time_embed_dim 16
        "06" "636f73696e65"  # the 6-byte kind b"cosine"
        "e8030000"  # T = 1000
    )
    buf = params_to_bytes(p, "cosine", 1000)
    assert buf == header + p.vec.astype("<f8").tobytes()
    q, kind, T = params_from_bytes(buf)
    assert (q.arch, kind, T) == (p.arch, "cosine", 1000)


@st.composite
def _mutated_params_files(draw):
    """A parameter file of a drawn architecture and schedule, cut at any
    length, with one byte flipped (in the header, or anywhere), or with a
    tail appended; and which of the three it is."""
    arch = DenoiserArch(draw(st.integers(1, 3)), draw(st.lists(st.integers(1, 4), max_size=3)),
                        draw(st.integers(1, 3)), draw(st.sampled_from([2, 4])))
    buf = params_to_bytes(init_denoiser(arch, draw(st.integers(0, 3))),
                          draw(st.sampled_from(SCHEDULE_KINDS)), draw(st.integers(2, 70000)))
    head = len(buf) - 8 * arch.param_count()
    edit = draw(st.sampled_from(["truncate", "flip", "tail"]))
    if edit == "truncate":
        return edit, buf[:draw(st.integers(0, len(buf) - 1))]
    if edit == "tail":
        return edit, buf + draw(st.binary(min_size=1, max_size=24))
    out = bytearray(buf)
    out[draw(st.one_of(st.integers(0, head - 1), st.integers(0, len(buf) - 1)))] ^= \
        draw(st.integers(1, 255))
    return edit, bytes(out)


@settings(max_examples=400, deadline=None)
@given(case=_mutated_params_files())
def test_a_mutated_params_file_raises_only_the_parser_errors(case):
    # a cut or a tail is always refused; a flipped byte is refused or gives
    # a file that writes back to the same bytes (a T of another value, say)
    edit, buf = case
    try:
        params, kind, T = params_from_bytes(buf)
    except (VersionError, NumericError):
        return
    assert edit == "flip"
    assert params_to_bytes(params, kind, T) == buf


def test_params_file_rejects_bad_magic():
    with pytest.raises(VersionError):
        params_from_bytes(b"NOTMAGIC" + b"\x00" * 64)


def test_params_file_rejects_truncation():
    p = init_denoiser(ARCH, 0)
    buf = params_to_bytes(p, "cosine", 100)
    with pytest.raises(VersionError):
        params_from_bytes(buf[:-8])


def test_params_file_rejects_trailing_bytes():
    buf = params_to_bytes(init_denoiser(ARCH, 0), "cosine", 100)
    with pytest.raises(VersionError, match="trailing bytes"):
        params_from_bytes(buf + b"\0")


def _zero_width_layer(buf: bytes) -> bytes:
    # the first hidden width follows magic, version, input dim and layer count
    return buf[:20] + struct.pack("<I", 0) + buf[24:]


@pytest.mark.parametrize("kind,T,edit", [
    ("cosine", 100, lambda buf: buf.replace(b"cosine", b"\xffosine", 1)),
    ("sigmoid", 100, None),
    ("cosine", 1, None),
    ("cosine", 100, _zero_width_layer),
], ids=["non_utf8_kind", "unknown_kind", "T_1", "zero_width_layer"])
def test_params_file_rejects_malformed_header(kind, T, edit):
    buf = params_to_bytes(init_denoiser(ARCH, 0), kind, T)
    with pytest.raises(VersionError, match="malformed parameter file header"):
        params_from_bytes(edit(buf) if edit else buf)


def test_params_file_rejects_bad_version():
    p = init_denoiser(ARCH, 0)
    buf = bytearray(params_to_bytes(p, "cosine", 100))
    buf[8] = 99
    with pytest.raises(VersionError):
        params_from_bytes(bytes(buf))


def _sincos_reference(t, dim):
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = np.asarray(t, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_time_embedding_table_equals_sincos_bytewise(dim, monkeypatch):
    monkeypatch.setattr(denoiser_mod, "_TABLE_CACHE", {})
    T = 1000
    ts = np.arange(T + 1)
    # one timestep at a time, so the table grows one row per call
    for k in ts:
        one = np.array([k])
        assert np.array_equal(time_embedding(one, dim), time_embedding(one.astype(float), dim))
    rng = np.random.default_rng(dim)
    batch = rng.permutation(ts)
    assert np.array_equal(time_embedding(batch, dim), time_embedding(batch.astype(float), dim))
    assert np.array_equal(time_embedding(ts, dim), _sincos_reference(ts, dim))


def test_time_embedding_float_negative_and_huge_t_use_sincos(monkeypatch):
    monkeypatch.setattr(denoiser_mod, "_TABLE_CACHE", {})
    t = np.array([0.5, 17.25, 999.75])
    assert np.array_equal(time_embedding(t, 8), _sincos_reference(t, 8))
    neg = np.array([-3, 4])
    assert np.array_equal(time_embedding(neg, 8), _sincos_reference(neg, 8))
    huge = np.array([5, 10**9])
    assert np.array_equal(time_embedding(huge, 8), _sincos_reference(huge, 8))
    assert denoiser_mod._TABLE_CACHE == {}


@pytest.mark.parametrize("w", [0.0, 1.0, 2.5])
def test_noise_predictor_matches_predict_noise(w):
    p = init_denoiser(ARCH, 5)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 2))
    c = np.array([0, 1, 2, 3, NULL_CONDITION, 1])
    ts = (7, np.arange(6) + 40)
    eps = NoisePredictor(p, w, 6).bind(c, np.stack(np.broadcast_arrays(*ts)))
    for i, t in enumerate(ts):
        assert np.array_equal(eps(x, i), predict_noise(p, x, t, c, guidance_w=w))


def test_noise_predictor_errors():
    p = init_denoiser(ARCH, 0)
    with pytest.raises(InvalidArgument):
        NoisePredictor(p, 1.0, 3).bind(99, [[5]])
    with pytest.raises(InvalidArgument):
        NoisePredictor(p, 1.0, 3).bind(np.array([0, -2, 1]), [[5]])
    eps = NoisePredictor(p, 1.0, 3).bind(1, [[5]])
    with pytest.raises(NumericError):
        eps(np.array([[0.0, 0.0], [np.nan, 0.0], [1.0, 1.0]]), 0)
    with pytest.raises(InvalidArgument):
        eps(np.zeros((3, 3)), 0)
    with pytest.raises(InvalidArgument):
        NoisePredictor("not a model", 1.0, 3).bind(0, [[5]])


BENCH_ARCH = DenoiserArch(2, (64, 64), 8, 16)


@pytest.mark.parametrize("n", [1, 64, 512, 1024])
@pytest.mark.parametrize("per_row_t", [False, True])
def test_workspace_forward_is_byte_identical(n, per_row_t):
    p = init_denoiser(BENCH_ARCH, 6)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 2))
    t = rng.integers(1, 1000, size=n) if per_row_t else np.full(n, 420)
    rows = rng.integers(0, 9, size=n)
    ws = BoundWorkspace(BENCH_ARCH, n, time_embedding(t, 16)[None])
    assert [b.shape for b in ws.bufs] == [(n, 34), (n, 64), (n, 64)]
    fresh = eps_forward(p, x, t, rows)
    for _ in range(2):  # a reused workspace gives the same bytes again
        assert eps_forward(p, x, 0, rows, ws=ws).tobytes() == fresh.tobytes()


@pytest.mark.parametrize("w", [0.0, 1.0, 2.5])
def test_noise_predictor_workspace_matches_unbound_forward(w):
    p = init_denoiser(BENCH_ARCH, 7)
    n = 512
    rng = np.random.default_rng(3)
    c = rng.integers(-1, 8, size=n)
    cond_rows = np.where(c == NULL_CONDITION, 8, c)
    null_rows = np.full(n, 8)
    ts = (7, rng.integers(1, 1000, size=n))
    eps = NoisePredictor(p, w, n).bind(c, np.stack(np.broadcast_arrays(*ts)))
    for i, t in enumerate(ts):
        x = rng.standard_normal((n, 2))
        tt = np.broadcast_to(t, (n,))
        eps_u = eps_forward(p, x, tt, null_rows)
        if w == 0.0:
            want = eps_u
        elif w == 1.0:
            want = eps_forward(p, x, tt, cond_rows)
        else:
            want = eps_u + w * (eps_forward(p, x, tt, cond_rows) - eps_u)
        assert eps(x, i).tobytes() == want.tobytes()


@pytest.mark.parametrize("w", [0.0, 2.5])
def test_noise_predictor_result_survives_the_next_call(w):
    # samplers keep delta = e across grid steps, so a returned eps must not
    # live in the reused workspace
    p = init_denoiser(BENCH_ARCH, 8)
    rng = np.random.default_rng(4)
    eps = NoisePredictor(p, w, 64).bind(3, [[500], [300]])
    first = eps(rng.standard_normal((64, 2)), 0)
    kept = first.copy()
    second = eps(rng.standard_normal((64, 2)), 1)
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, second)
