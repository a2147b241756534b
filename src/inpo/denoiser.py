"""Conditional noise-prediction network.

A small fully connected network predicts the noise added to a sample. Inputs
are the noisy sample, a sinusoidal embedding of the timestep, and a learned
embedding of the condition id; the three are concatenated and passed through
tanh hidden layers. Condition ids live in [0, num_conditions); the reserved
id NULL_CONDITION selects a learned null embedding used for unconditional
prediction and classifier-free guidance.

A model's parameters are one contiguous float64 vector, DenoiserParams.vec,
laid out in declaration order (per layer the weight matrix, then the bias;
the condition-embedding table last), which is also the order of the
parameter file. ``weights``, ``biases`` and ``cond_embed`` are reshaped views
of it, so the optimizer updates the whole model with a few whole-vector
operations and the file is a header followed by the vector's bytes. The
structure is frozen, with tuples of views, so no attribute can be rebound to
an array outside ``vec``; writing through a view in place still changes
``vec``, as finite-difference checks do.

One forward routine serves sampling and training, and one backward,
eps_backward, the gradient. A training window allocates one StepWorkspace,
sized to its batch and built for its schedule's T, and hands it to the loss
heads' closed-form cores (preference._sft_step and _pair_step): a step
embeds its timesteps once (StepWorkspace.bind_step), runs the trained
forward into the kept layer inputs and the frozen reference's forward into
a second set of buffers, and eps_backward backpropagates the loss's output
gradient into the workspace's gradient vector, laid out like ``vec``;
nothing is allocated per step beyond small per-row arrays. On TapeParams
eps_forward runs the same forward and returns one node over the
parameter-vector leaf whose VJP is eps_backward, and value_and_grad runs
such a chain: the tape is the reference the tests hold the closed-form
cores to, arithmetic for arithmetic.

A NoisePredictor is the per-step noise function that sampling, inversion
and the fixed-point solver call. It owns its workspace, and bind(c, grid)
binds a batch's conditions, guidance branch and timestep grid; the
inverter rebinds one per window, ddim_sample and the solver bind a new one
per call, and predict_noise is a one-off call of one on a grid of one
step.

Every forward, plain or taped, runs one way: in a BoundWorkspace, n rows'
preallocated buffers for the concatenated input [x | time embedding |
condition embedding] and one per hidden layer, bound to the time
embeddings of a timestep grid, and BoundWorkspace.load is the one place
the input is written. A NoisePredictor binds its workspace to the grid of
a sampler call or an inverter window, StepWorkspace.bind_step binds a
training step's two workspaces (and the tape's) to a grid of one step, and
a one-off eps_forward binds a workspace of its own to a grid of one step,
as predict_noise does. A bind sets up once what its grid steps share: the
time embeddings of the whole grid, by one time_embedding call (into the
last bind's buffer when the grid's shape is the same). A BoundWorkspace
records which rows' condition block and which step's embedding its input
holds, so a step's forward copies x, and the condition rows and the step's
embedding when they change, then runs the layers; a bind makes it forget
both, since the model may have changed in place. A NoisePredictor's bind
also copies each bias into an (n, width) row tile, so a layer adds its
bias with a same-shape add instead of a broadcast one, which numpy buffers
(twice the cost or more at these sizes); the sum is the same IEEE
addition, bit for bit. A training step's forward of the trained model
keeps the bias vectors: Adam changes them every step, so re-tiling would
cost what the add saves. The frozen reference's biases are tiled once per
pair window (the window binds StepWorkspace.bound_ref with them, and
bind_step's rebinds keep the tiles). The returned noise prediction is
always a fresh array.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Var
from .errors import InvalidArgument, NumericError, VersionError
from .schedule import SCHEDULE_KINDS

NULL_CONDITION = -1
PARAMS_MAGIC = b"INPODENZ"
PARAMS_VERSION = 1


@dataclass(frozen=True)
class DenoiserArch:
    input_dim: int
    hidden_dims: tuple[int, ...]
    num_conditions: int
    time_embed_dim: int

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise InvalidArgument("input_dim must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise InvalidArgument("hidden dims must be positive")
        if self.num_conditions < 1:
            raise InvalidArgument("num_conditions must be >= 1")
        if self.time_embed_dim < 2 or self.time_embed_dim % 2:
            raise InvalidArgument("time_embed_dim must be a positive even integer")

    def layer_dims(self) -> list[tuple[int, int]]:
        widths = [self.input_dim + 2 * self.time_embed_dim, *self.hidden_dims, self.input_dim]
        return list(zip(widths[:-1], widths[1:]))

    def param_count(self) -> int:
        n = sum(i * o + o for i, o in self.layer_dims())
        return n + (self.num_conditions + 1) * self.time_embed_dim


@dataclass(frozen=True, eq=False)
class DenoiserParams:
    """Network weights: the parameter vector ``vec`` and, derived from it,
    the per-array views ``weights``, ``biases`` and ``cond_embed`` (see the
    module docstring). from_arrays builds one from separate arrays."""

    arch: DenoiserArch
    vec: np.ndarray
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)
    cond_embed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vec, layout = self.vec, _layout(self.arch)
        if (not isinstance(vec, np.ndarray) or vec.dtype != np.float64
                or vec.shape != (layout[-1][1],) or not vec.flags.c_contiguous):
            raise InvalidArgument(
                f"parameter vector must be a contiguous float64 array of "
                f"{self.arch.param_count()} values")
        views = [vec[start:stop].reshape(shape) for start, stop, shape in layout]
        object.__setattr__(self, "weights", tuple(views[0:-1:2]))
        object.__setattr__(self, "biases", tuple(views[1:-1:2]))
        object.__setattr__(self, "cond_embed", views[-1])

    @classmethod
    def from_arrays(cls, arch: DenoiserArch, weights, biases, cond_embed) -> "DenoiserParams":
        """Copy per-layer weights and biases and the embedding table into one vector."""
        arrays = [a for wb in zip(weights, biases) for a in wb] + [cond_embed]
        if [np.shape(a) for a in arrays] != [shape for _, _, shape in _layout(arch)]:
            raise InvalidArgument(f"parameter arrays do not match the architecture {arch}")
        return cls(arch, np.concatenate(arrays, axis=None, dtype=np.float64))

    def flat(self) -> list[np.ndarray]:
        """All parameter arrays in declaration order, as views of ``vec``."""
        return [a for wb in zip(self.weights, self.biases) for a in wb] + [self.cond_embed]

    def copy(self) -> "DenoiserParams":
        return DenoiserParams(self.arch, self.vec.copy())


@functools.cache
def _layout(arch: DenoiserArch) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(start, stop, shape) in the parameter vector of each parameter array,
    in declaration order."""
    shapes = []
    for fan_in, fan_out in arch.layer_dims():
        shapes += [(fan_in, fan_out), (fan_out,)]
    shapes.append((arch.num_conditions + 1, arch.time_embed_dim))
    out, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        out.append((start, stop, shape))
        start = stop
    return tuple(out)


class TapeParams:
    """DenoiserParams on the tape: ``leaf`` is one Var over ``params.vec``,
    and eps_forward on it returns a node whose parent is that leaf."""

    def __init__(self, params: DenoiserParams):
        self.params, self.arch, self.leaf = params, params.arch, Var(params.vec)


def init_denoiser(arch: DenoiserArch, seed: int) -> DenoiserParams:
    """Deterministic fan-in scaled initialization; same (arch, seed) gives
    bit-identical parameters."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9E37]))
    weights, biases = [], []
    for fan_in, fan_out in arch.layer_dims():
        weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    cond_embed = 0.5 * rng.standard_normal((arch.num_conditions + 1, arch.time_embed_dim))
    return DenoiserParams.from_arrays(arch, weights, biases, cond_embed)


_TABLE_CACHE: dict[int, np.ndarray] = {}
# Timesteps above this are embedded directly, so an outsized t cannot grow
# the table without bound (2**16 rows are 8 MB at dim 16).
_TABLE_MAX_T = 1 << 16


def _sincos(t: np.ndarray, dim: int) -> np.ndarray:
    freqs = np.exp(-np.log(10000.0) * np.arange(dim // 2) / (dim // 2))
    ang = t[..., None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


def time_embedding(t, dim: int, out=None, table=None) -> np.ndarray:
    """Sinusoidal embedding of an array of timesteps of any shape, (*shape, dim).

    Integer timesteps in [0, 2**16] are gathered from a per-dim table of the
    same sin/cos values, grown to the largest timestep seen; other
    nonnegative timesteps (the continuous times of the RK4 oracle, or past
    the table) are computed directly, and a negative or non-finite one
    raises InvalidArgument. With ``out``, a (*shape, dim) array, the embedding is
    written into it and it is returned. ``table``, the table for ``dim``
    grown to cover ``t`` (see _time_table), skips the look-up and its range
    check; StepWorkspace passes the one it keeps for its schedule's T.
    """
    t = np.asarray(t)
    table = _time_table(t, dim) if table is None else table
    if table is not None:
        return table.take(t, axis=0, out=out, mode="clip")
    ok = np.isfinite(t) & (t >= 0)
    if not ok.all():
        raise InvalidArgument(f"timesteps must be finite and >= 0, got {t[~ok].flat[0]}")
    emb = _sincos(t.astype(np.float64), dim)
    if out is None:
        return emb
    out[...] = emb
    return out


def _time_table(t: np.ndarray, dim: int) -> np.ndarray | None:
    """time_embedding's table, grown to cover the timesteps ``t``, or None
    if they are not integers in [0, 2**16]."""
    if t.dtype.kind not in "iu" or not t.size:
        return None
    low, top = int(t.min()), int(t.max())
    if low < 0 or top > _TABLE_MAX_T:
        return None
    table = _TABLE_CACHE.get(dim)
    if table is None or top >= len(table):
        table = _sincos(np.arange(top + 1, dtype=np.float64), dim)
        _TABLE_CACHE[dim] = table
    return table


def _integer_ids(c) -> np.ndarray:
    c = np.asarray(c)
    if not np.issubdtype(c.dtype, np.integer):
        raise InvalidArgument("condition ids must be integers")
    return c


def _as_rows(x) -> np.ndarray:
    """``x`` as a float64 batch: one vector becomes a batch of one row."""
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def _per_row(v, n: int, what: str) -> np.ndarray:
    """``v``, one value or one per row, broadcast to a batch of n rows."""
    v = np.asarray(v)
    if v.shape == (n,):
        return v
    if v.shape not in ((), (1,)):
        raise InvalidArgument(f"{what} of shape {v.shape} for a batch of {n} rows")
    return np.broadcast_to(v, (n,))


def _cond_rows(c, num_conditions: int) -> np.ndarray:
    c = _integer_ids(c)
    if c.size and (c.max() >= num_conditions or c.min() < NULL_CONDITION):
        raise InvalidArgument(f"condition id out of range [-1, {num_conditions})")
    return np.where(c == NULL_CONDITION, num_conditions, c)


class BoundWorkspace:
    """The buffers of forwards on n rows, bound to the time embeddings
    ``temb`` of a timestep grid, (steps, 1 or n, dim): ``bufs``, the
    concatenated input [x | time embedding | condition embedding] and then
    one per hidden layer, which every forward overwrites. eps_forward takes
    a step index of the grid for t; ``rows`` and ``step`` record what the
    input's condition and time blocks hold, so a forward rewrites only the
    blocks that differ, and x. It serves one model, unchanged while bound;
    bind rebinds it to a new grid and forgets both blocks, so a model
    changed in place since has its condition block rewritten. The
    condition rows are gathered into a contiguous (n, dim) buffer of its
    own, then copied into their block: numpy's take would buffer a copy for
    a strided ``out``.

    ``tiles`` are None until a bind is given ``biases``, then the layers'
    biases as (n, width) row tiles, which the forward adds in place of the
    model's bias vectors; a bind given ``biases`` copies them into the
    tiles, and one without leaves the tiles as they are."""

    def __init__(self, arch: DenoiserArch, n: int, temb: np.ndarray | None = None):
        self.bufs = [np.empty((n, fan_in)) for fan_in, _ in arch.layer_dims()]
        self.cond = np.empty((n, arch.time_embed_dim))
        self.tiles = None
        self.bind(temb)

    def bind(self, temb: np.ndarray, biases=None) -> None:
        self.temb, self.rows, self.step = temb, None, None
        if biases is not None:
            if self.tiles is None:
                self.tiles = [np.empty((len(self.cond), len(b))) for b in biases]
            for tile, b in zip(self.tiles, biases):
                np.copyto(tile, b)

    def load(self, x, step, rows, cond_embed) -> np.ndarray:
        h = self.bufs[0]
        d, width = x.shape[1], cond_embed.shape[1]
        if rows is not self.rows:
            # rows arrive range-checked (by NoisePredictor.bind, the
            # trainer's data checks or eps_forward), so mode="clip" never
            # clips; unlike the default mode it writes straight into ``out``
            h[:, d + width:] = cond_embed.take(rows, axis=0, out=self.cond, mode="clip")
            self.rows = rows
        if step != self.step:
            h[:, d:d + width] = self.temb[step]
            self.step = step
        h[:, :d] = x
        return h


def _forward(p: DenoiserParams, x, step, rows, ws: BoundWorkspace):
    """The network on plain arrays at step ``step`` of ``ws``'s grid: the
    input is written by ws.load, each hidden layer's input into ws.bufs,
    and ws's bias tiles, once bound, stand in for the biases."""
    h = ws.load(x, step, rows, p.cond_embed)
    biases = p.biases if ws.tiles is None else ws.tiles
    weights, bufs = p.weights, ws.bufs
    last = len(weights) - 1
    for i in range(last):
        h = np.matmul(h, weights[i], out=bufs[i + 1])
        h += biases[i]
        np.tanh(h, out=h)
    out = h @ weights[last]
    out += biases[last]
    return out


class StepWorkspace:
    """Buffers one training loop reuses on every step for a differentiated
    forward on n rows: two BoundWorkspaces of n rows that share one one-step
    grid of time embeddings, (1, n, dim), which bind_step fills, ``bound``
    for the trained forward, whose layer inputs the backward reads
    (``acts``, its buffers), and ``bound_ref`` for a plain forward such as
    the frozen reference's, into whose buffers (``ref``) the backward
    writes its input gradients (see eps_backward); the gradient (``grad``,
    DenoiserParams over one vector) and the embedding scatter's scratch. A
    step's forward overwrites them, so each step's backward must run before
    the next step's forward.

    Given the schedule's ``T``, the workspace keeps time_embedding's table
    grown to cover [0, T] (none past the table's range), and bind_step
    gathers from it unchecked, so every timestep it is given must lie in
    [0, T]; without ``T``, bind_step embeds through time_embedding's
    checked path."""

    def __init__(self, arch: DenoiserArch, n: int, T: int | None = None):
        self.n = n
        self.grad = DenoiserParams(arch, np.empty(arch.param_count()))
        width = arch.time_embed_dim
        self.table = None if T is None else _time_table(np.array([T]), width)
        self.temb = np.empty((1, n, width))
        self.bound = BoundWorkspace(arch, n, self.temb)
        self.bound_ref = BoundWorkspace(arch, n, self.temb)
        self.acts, self.ref = self.bound.bufs, self.bound_ref.bufs
        # every row's column indices, so the scatter's bins need no broadcast
        self.embed_cols = np.tile(np.arange(width), (n, 1))
        self.embed_bins = np.empty((n, width), dtype=np.int64)
        self.embed_grad = np.empty((n, width))

    def bind_step(self, t: np.ndarray) -> None:
        """Embed the per-row timesteps ``t`` once into the grid that both
        bound workspaces read at step 0, and make their next forwards
        rewrite every input block."""
        time_embedding(t, self.temb.shape[2], out=self.temb[0], table=self.table)
        self.bound.bind(self.temb)
        self.bound_ref.bind(self.temb)


def eps_backward(params: DenoiserParams, g, rows, ws: StepWorkspace) -> DenoiserParams:
    """Backpropagate ``g``, the gradient of a loss with respect to the output
    of the last forward of ``params`` run in ``ws.acts`` at embedding rows
    ``rows``, through the network in closed form; fills ``ws.grad`` and
    returns it.

    Per layer, from the last: the bias and weight gradients, then the
    gradient of the layer input, times tanh' below a hidden layer; the
    embedding rows' gradient is scattered from the last columns of the
    input gradient. Each step is the elementary VJPs' arithmetic (matmul,
    bias broadcast, tanh, row gather) in the same order, so the gradients
    equal the per-op network's byte for byte. The input gradients are
    written into ``ws.ref`` and tanh' over the hidden layers' inputs in
    ``ws.acts``, so both are spent until the next forward.
    """
    grad = ws.grad
    for i in range(len(params.weights) - 1, -1, -1):
        a = ws.acts[i]
        np.add.reduce(g, axis=0, out=grad.biases[i])
        np.matmul(a.T, g, out=grad.weights[i])
        g = np.matmul(g, params.weights[i].T, out=ws.ref[i])
        if i:
            # tanh' = 1 - a * a, in place: the layer input is not read again
            np.multiply(a, a, out=a)
            np.subtract(1.0, a, out=a)
            g *= a
    n_rows, width = params.cond_embed.shape
    # flat (row * width + col) bins add in input order, as np.add.at does
    bins, weights = ws.embed_bins, ws.embed_grad
    np.copyto(bins, rows[:, None])
    bins *= width
    bins += ws.embed_cols
    weights[...] = g[:, -width:]
    g_embed = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=n_rows * width)
    grad.cond_embed[...] = g_embed.reshape(n_rows, width)
    return grad


def _taped_forward(tape: TapeParams, x, t, rows, ws: StepWorkspace | None) -> Var:
    """The plain forward as one tape node over the parameter leaf.

    The forward embeds ``t`` by ws.bind_step and runs in ws.bound, as the
    training cores' do, so the node keeps the layer inputs in ``ws.acts``;
    it backpropagates through eps_backward into the views of the
    workspace's gradient vector. Without ``ws`` the call gets a workspace,
    and so a gradient vector, of its own.
    """
    p = tape.params
    rows = _table_rows(rows, tape.arch)
    if ws is None:
        ws = StepWorkspace(tape.arch, len(x))
    elif ws.n != len(x):
        raise InvalidArgument(f"workspace of {ws.n} rows for a batch of {len(x)}")
    ws.bind_step(t)
    out = _forward(p, x, 0, rows, ws.bound)
    return Var(out, tape.leaf, lambda g: eps_backward(p, g, rows, ws).vec)


def _table_rows(rows, arch: DenoiserArch) -> np.ndarray:
    """``rows`` as an array of embedding-table rows, checked to lie in
    [0, num_conditions]: BoundWorkspace.load gathers them unchecked."""
    rows = _integer_ids(rows)
    if rows.size and (rows.min() < 0 or rows.max() > arch.num_conditions):
        raise InvalidArgument(f"embedding row out of range [0, {arch.num_conditions}]")
    return rows


def eps_forward(model, x, t, rows, ws: BoundWorkspace | None = None):
    """Single forward pass at explicit embedding rows.

    ``model`` is DenoiserParams or TapeParams; ``x`` is (batch, dim) and
    ``rows`` a (batch,) array of embedding-table rows. Every forward runs
    in a BoundWorkspace of the batch's size. With one, ``ws``, ``t`` is a
    step of its grid, and only the input blocks that differ from what it
    holds are written; NoisePredictor.bind and StepWorkspace.bind_step bind
    them, and the workspace must not be shared with a forward still in use.
    Without one, ``t`` is one timestep or a (batch,) array and the call
    binds a workspace of its own to a grid of that one step, as
    predict_noise does. On TapeParams the result is one Var over its leaf
    (see _taped_forward), with the same forward arithmetic; ``t`` is then a
    (batch,) array, and ``ws`` a StepWorkspace of the batch's size, if
    given. The result is a fresh array either way.
    """
    if isinstance(model, TapeParams):
        return _taped_forward(model, x, t, rows, ws)
    if ws is None:
        rows = _table_rows(rows, model.arch)
        ws = BoundWorkspace(model.arch, len(x), time_embedding(t, model.arch.time_embed_dim)[None])
        t = 0
    return _forward(model, x, t, rows, ws)


class NoisePredictor:
    """The noise prediction of one model on batches of n rows, with
    predict_noise's semantics, bound to a guidance weight.

    bind(c, grid) binds the batch's conditions and the timesteps of every
    step to be evaluated, ``grid`` of (steps, 1) or (steps, n) for one per
    row; the predictor is then eps(x, i) for (n, input_dim) samples x at grid
    step i. The one BoundWorkspace of n rows, its bias tiles and the
    time-embedding buffer outlive binds; a bind resolves the conditions,
    embeds the grid by one time_embedding call (into the last bind's buffer
    when the grid's shape is the same), copies the model's biases into the
    row tiles and makes the next forward rewrite every input block, so the
    condition block and the biases are the model's as they are at the
    bind. A guided call runs both branches in the workspace, the null rows'
    forward then the condition rows', so each rewrites the condition block
    the other left. Every eps call checks the sample's shape and finiteness
    and returns a fresh array.
    """

    def __init__(self, model, guidance_w: float, n: int):
        if not isinstance(model, DenoiserParams):
            raise InvalidArgument(f"model must be DenoiserParams, got {type(model)}")
        arch = model.arch
        self.model, self.guidance_w, self.n = model, guidance_w, n
        self.shape = (n, arch.input_dim)
        self.null_rows = np.full(n, arch.num_conditions)
        self.ws = BoundWorkspace(arch, n)
        self.rows = self.null_rows
        self.guided = False

    def bind(self, c, grid) -> "NoisePredictor":
        arch, n = self.model.arch, self.n
        grid = np.asarray(grid)
        if grid.ndim != 2 or grid.shape[1] not in (1, n):
            raise InvalidArgument(
                f"per-row timesteps of length {grid.shape[-1]} for a batch of {n} rows")
        cv = _per_row(c, n, "condition ids")
        rows = _cond_rows(cv, arch.num_conditions)
        temb = self.ws.temb
        out = temb if temb is not None and temb.shape[:2] == grid.shape else None
        self.ws.bind(time_embedding(grid, arch.time_embed_dim, out=out), self.model.biases)
        w = self.guidance_w
        if w == 0.0 or (cv == NULL_CONDITION).all():
            self.rows, self.guided = self.null_rows, False
        else:
            self.rows, self.guided = rows, w != 1.0
        return self

    def __call__(self, x, i):
        if x.shape != self.shape:
            raise InvalidArgument(f"sample batch shape {x.shape} != {self.shape}")
        if not np.isfinite(x).all():
            raise NumericError("non-finite sample passed to the denoiser")
        if not self.guided:
            return eps_forward(self.model, x, i, self.rows, ws=self.ws)
        eps_u = eps_forward(self.model, x, i, self.null_rows, ws=self.ws)
        eps_c = eps_forward(self.model, x, i, self.rows, ws=self.ws)
        # uncond + w * (cond - uncond), in place in the fresh eps_c
        eps_c -= eps_u
        eps_c *= self.guidance_w
        eps_c += eps_u
        return eps_c


def predict_noise(model, x_t, t, c, guidance_w: float = 0.0) -> np.ndarray:
    """Evaluate the noise prediction with classifier-free guidance weight w.

    w = 0 returns the null-condition prediction; w = 1 the conditional one;
    any other w the affine combination uncond + w * (cond - uncond). ``x_t``
    is one sample or a (batch, dim) array, ``t`` a scalar or one timestep
    per row. A one-off NoisePredictor call on a grid of one step.
    """
    x = _as_rows(x_t)
    out = NoisePredictor(model, guidance_w, len(x)).bind(c, np.atleast_1d(t)[None])(x, 0)
    return out[0] if np.ndim(x_t) == 1 else out


def value_and_grad(params: DenoiserParams, loss_fn) -> tuple[float, DenoiserParams]:
    """Value of a scalar loss and its exact reverse-mode gradient, as
    DenoiserParams over a vector laid out like ``params.vec``: the tape,
    which the tests use as the reference for the heads' closed-form
    functions; no training step runs it.

    ``loss_fn`` receives TapeParams(params) and must return a scalar Var, such
    as a loss head over eps_forward(tape, ...); one not reaching the leaf has
    zero gradient. The vector is the one the network's backward filled: a new
    one per call, or the StepWorkspace's when the loss ran its forward in one.
    """
    tape = TapeParams(params)
    out = loss_fn(tape)
    if not isinstance(out, Var) or out.data.shape != ():
        raise InvalidArgument("loss_fn must return a scalar Var")
    if not np.isfinite(out.data):
        raise NumericError(f"loss is non-finite: {out.data!r}")
    out.backward()
    grad = tape.leaf.grad
    return float(out.data), DenoiserParams(
        params.arch, np.zeros_like(params.vec) if grad is None else grad)


# ---------------------------------------------------------------------------
# parameter file format: little-endian, versioned header, then the float64
# parameter vector


def _header_format(n_hidden: int, kind_len: int) -> str:
    """The parameter file's header as one struct format: the magic, the
    version, input_dim, the hidden-layer count, that many hidden widths,
    num_conditions, time_embed_dim, the schedule kind's length in bytes,
    the kind and T."""
    return f"<8s3I{n_hidden}I2IB{kind_len}sI"


def _pack_header(params: DenoiserParams, schedule_kind: str, T: int) -> bytes:
    a, kind = params.arch, schedule_kind.encode()
    return struct.pack(_header_format(len(a.hidden_dims), len(kind)), PARAMS_MAGIC,
                       PARAMS_VERSION, a.input_dim, len(a.hidden_dims), *a.hidden_dims,
                       a.num_conditions, a.time_embed_dim, len(kind), kind, T)


def params_to_bytes(params: DenoiserParams, schedule_kind: str, T: int) -> bytes:
    vec = np.ascontiguousarray(params.vec, dtype="<f8")
    return _pack_header(params, schedule_kind, T) + vec.tobytes()


def _unpack(fmt: str, buf: bytes, offset: int = 0) -> tuple:
    """struct.unpack_from, raising VersionError if ``buf`` ends first."""
    try:
        return struct.unpack_from(fmt, buf, offset)
    except struct.error:
        raise VersionError("truncated parameter file") from None


def params_from_bytes(buf: bytes) -> tuple[DenoiserParams, str, int]:
    """Parse a parameter file. Its fields are checked in file order, so a
    bad file raises for its first fault: VersionError for a short file,
    another magic or version, a malformed header, a vector of another
    length or bytes after it; NumericError for a non-finite vector."""
    if buf[:8] != PARAMS_MAGIC:
        raise VersionError("truncated parameter file" if len(buf) < 8
                           else "not a denoiser parameter file")
    (version,) = _unpack("<I", buf, 8)
    if version != PARAMS_VERSION:
        raise VersionError(f"unsupported parameter format version {version}")
    # the format's two lengths: the hidden-layer count after input_dim, and
    # the kind's length, the byte before the kind and T
    (n_hidden,) = _unpack("<I", buf, 16)
    (kind_len,) = _unpack("<B", buf, struct.calcsize(_header_format(n_hidden, 0)) - 5)
    fmt = _header_format(n_hidden, kind_len)
    _, _, input_dim, _, *hidden, num_conditions, time_embed_dim, _, kind, T = _unpack(fmt, buf)
    try:
        kind = kind.decode()
        arch = DenoiserArch(input_dim, hidden, num_conditions, time_embed_dim)
    except (UnicodeDecodeError, InvalidArgument) as e:
        raise VersionError(f"malformed parameter file header: {e}") from None
    if kind not in SCHEDULE_KINDS or T < 2:
        raise VersionError(f"malformed parameter file header: schedule {kind!r} with T={T}")
    head, n = struct.calcsize(fmt), arch.param_count()
    if len(buf) != head + 8 * n:
        raise VersionError("truncated parameter file" if len(buf) < head + 8 * n
                           else "trailing bytes in parameter file")
    vec = np.frombuffer(buf, dtype="<f8", count=n, offset=head).astype(np.float64)
    if not np.isfinite(vec).all():
        raise NumericError("parameter file contains non-finite values")
    return DenoiserParams(arch, vec), kind, T


def save_params(path, params: DenoiserParams, schedule_kind: str, T: int) -> None:
    """Write the parameter file; a vector that params_from_bytes would
    reject as non-finite raises NumericError before the file is opened."""
    if not np.isfinite(params.vec).all():
        raise NumericError("refusing to write non-finite parameters")
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params, schedule_kind, T))


def load_params(path) -> tuple[DenoiserParams, str, int]:
    """The parameters, schedule kind and T of the file at ``path``
    (params_from_bytes)."""
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())
