"""Minimal dense autoencoder on numpy.

Encoder and decoder are mirror images: a net with hidden sizes [h1, h2]
runs input -> h1 -> h2 -> h1 -> input, activation on every layer except
the linear output. Parameters live in one flat float64 vector, encoder
first; each layer is its (fan_in, fan_out) weight matrix row-major, then
its fan_out biases. That is also the canonical order for weight exchange
and serialization, and it makes each layer one (fan_in + 1, fan_out)
block whose last row is the bias: against an input with a constant ones
column, one matmul computes a @ W + b. Training is mini-batch Adam on
mean squared reconstruction error. Arithmetic is 64-bit; the wire format
stores parameters as 32-bit floats.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

import numpy as np

ACTIVATIONS = ("relu", "tanh", "sigmoid")

# Adam's beta1, beta2 and eps, fixed at the published defaults (Kingma & Ba, 2015)
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8

# the step program's float operands as 0-d arrays, which numpy takes without promotion
_ONE, _ZERO, _EPS = (np.array(v, dtype=np.float64) for v in (1.0, 0.0, ADAM_EPS))

_MAGIC = b"AEFL"
_VERSION = 0x01


@dataclass(frozen=True)
class ArchSpec:
    """Autoencoder topology. The production pipeline always uses 5 inputs."""

    input_dim: int = 5
    hidden_sizes: tuple[int, ...] = (32,)
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be non-empty positive integers")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    def layer_dims(self) -> list[int]:
        """Unit counts per layer boundary, encoder then mirrored decoder."""
        hidden = list(self.hidden_sizes)
        return [self.input_dim] + hidden + hidden[-2::-1] + [self.input_dim]


def param_count(arch: ArchSpec) -> int:
    """Trainable parameters: sum of fan_in*fan_out + fan_out over layers.

    For a single hidden layer h on 5 inputs this is 11h + 5.
    """
    dims = arch.layer_dims()
    return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


class AutoencoderModel:
    """Parameter storage plus layer views; train() mutates it in place."""

    def __init__(self, arch: ArchSpec):
        self.arch = arch
        self._flat = np.zeros(param_count(arch), dtype=np.float64)
        blocks = _layer_views(self._flat, arch)
        self.weights = [block[:-1] for block in blocks]
        self.biases = [block[-1] for block in blocks]

    @property
    def n_params(self) -> int:
        return self._flat.size


def _layer_views(flat: np.ndarray, arch: ArchSpec) -> list[np.ndarray]:
    """Per-layer (..., fan_in + 1, fan_out) views of a flat vector or an (R, P) block.

    Rows :fan_in of a layer's view are its weights, row fan_in its biases.
    """
    dims = arch.layer_dims()
    blocks, offset = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        size = (fan_in + 1) * fan_out
        blocks.append(flat[..., offset : offset + size].reshape(flat.shape[:-1] + (fan_in + 1, fan_out)))
        offset += size
    return blocks


def build_autoencoder(arch: ArchSpec, seed: int) -> AutoencoderModel:
    """Seeded init: weights uniform in +-sqrt(6/(fan_in+fan_out)), biases zero."""
    model = AutoencoderModel(arch)
    rng = np.random.default_rng(seed)
    for w in model.weights:
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return model


def serialized_param_bytes(model: AutoencoderModel) -> int:
    """Raw float32 parameter payload size in bytes (container header excluded)."""
    return model.n_params * 4


def mse(y, y_hat) -> float:
    """Mean squared deviation between two equal-shape arrays."""
    a = np.asarray(y, dtype=np.float64)
    b = np.asarray(y_hat, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("mse of empty input is undefined")
    d = a - b
    return float(np.mean(d * d))


def forward(model: AutoencoderModel, batch) -> np.ndarray:
    """Reconstruct a batch; output shape equals input shape."""
    x = _with_ones(model, batch)
    arch, n = model.arch, x.shape[1]
    # one buffer per layer, all cut from one block (one allocation a call left the
    # federated benchmark's peak RSS lower than one a layer): the matmul writes its
    # units, the activation runs in place, and a hidden buffer's last column is pinned
    # as the training stack pins it
    widths = _widths(arch)
    cuts = [0, *itertools.accumulate(n * w for w in widths)]
    mem = np.empty(cuts[-1])
    bufs = [mem[lo:hi].reshape(1, n, w) for lo, hi, w in zip(cuts, cuts[1:], widths)]
    for buf in bufs[:-1]:
        buf[..., -1] = 1.0 if arch.activation == "relu" else np.inf
    blocks = _layer_views(model._flat[None], arch)
    return _run(_forward_calls(arch.activation, blocks, x, bufs, bufs))[0]


def _widths(arch: ArchSpec) -> list[int]:
    """Columns of each layer's activation buffer: its units and, but for the output, a ones column."""
    return [d + 1 for d in arch.layer_dims()[1:-1]] + [arch.input_dim]


def _forward_calls(kind: str, blocks, x, pres, acts) -> list:
    """Forward calls of r models on a batch; the last one returns the reconstruction.

    blocks are the layers' (r, fan_in + 1, fan_out) views and x the
    (r, b, d + 1) batch with its ones column. Each layer's matmul writes
    the units of its pre-activation buffer, and its activation (none on
    the output layer) reads that buffer whole into its activation buffer,
    the same one or another; each hidden buffer carries a last column the
    activation maps to exactly 1, the next layer's ones column.

    The folded matmul sums a @ W and b in the BLAS kernel's order, which
    can differ in the last bit from a matmul and a bias add (with numpy
    2.4.6 on OpenBLAS it always did for one row); the reference trainer
    in tests/test_autoencoder_oracle.py bounds how far training drifts.
    """
    calls, a, last = [], x, len(blocks) - 1
    for k, (block, pre, z) in enumerate(zip(blocks, pres, acts)):
        units = pre[..., : block.shape[-1]]  # strided, but for the output layer
        calls.append((np.matmul, (a, block, units)))
        if k < last:
            if kind == "tanh":
                calls.append((np.tanh, (pre, z)))
            elif kind == "relu":  # a positional out is deprecated for np.maximum
                calls.append((partial(np.maximum, out=z), (z, _ZERO)))
            else:  # sigmoid: 1 / (1 + exp(-z))
                calls += [(np.negative, (pre, z)), (np.exp, (z, z))]
                calls += [(np.add, (z, _ONE, z)), (np.divide, (_ONE, z, z))]
        a = z
    return calls


def _check_batch(model: AutoencoderModel, batch) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.arch.input_dim:
        raise ValueError(
            f"batch must be (n, {model.arch.input_dim}), got {x.shape}"
        )
    if not np.isfinite(x).all():
        raise ValueError("the data holds NaN or infinite values")
    return x


def _with_ones(model: AutoencoderModel, batch) -> np.ndarray:
    """A checked (n, d) batch as one (1, n, d + 1) batch whose last column is ones."""
    x = _check_batch(model, batch)
    return np.hstack([x, np.ones((len(x), 1))])[None]


def loss_and_gradient(model: AutoencoderModel, batch) -> tuple[float, np.ndarray]:
    """Reconstruction MSE of a batch and its gradient in flat canonical order."""
    x = _with_ones(model, batch)
    if x.shape[1] == 0:
        raise ValueError("the loss of an empty batch is undefined")
    stack = _Stack(model.arch, model._flat[None], x.shape[1])
    err = np.empty(x[..., :-1].shape)
    fwd, bwd, _ = stack.emit(0, 1, x.shape[1], *_operands(x, err, None))
    _run(fwd + bwd)
    return float(np.add.reduce(np.square(err).reshape(-1)) / err.size), stack.grad[0]


def _run(calls):
    """Make (ufunc, args) calls in order; returns what the last one returned."""
    for f, args in calls:
        out = f(*args)
    return out


# a step's per-call operands: its batch with a ones column, that transposed, the batch
# alone (the reconstruction target), its error rows, its corrections and its error scale
_SLOTS = ("x", "xt", "y", "err", "corr", "scale")


def _operands(x, err, corr, scale=None) -> tuple:
    """A step's operands in `_SLOTS` order from its (r, b, d + 1) batch x; scale defaults to a 0-d 2 / (b * d)."""
    if scale is None:
        scale = np.array(2.0 / (x.shape[1] * (x.shape[2] - 1)))
    return x, x.transpose(0, 2, 1), x[..., :-1], err, corr, scale


class _Stack:
    """R same-architecture models that one program of numpy calls steps together.

    Parameters and gradients are (R, P) blocks in flat canonical order,
    and Adam's m and v one (2, R, P) block; each layer's weights and
    biases are one (R, fan_in + 1, fan_out) view of a block, biases last.
    The batch and every hidden activation carry a ones column after their
    units, so one matmul computes a layer's a @ W + b, and one matmul of
    the transposed input and the layer's error writes its weight and bias
    gradients. Activations and back-propagated errors live in buffers
    allocated once and viewed as (r, b, d + 1) for r models of b rows (the
    output layer's as (r, b, d)). Matmuls read and write strided views of
    them; every elementwise call but Adam's divide by its (2, r, 1)
    corrections takes operands of its output's shape or 0-d, numpy's
    cheapest path. A tanh or sigmoid matmul writes a pre-activation buffer
    whose last column is +inf, which the activation maps to exactly 1: the
    ones column (relu keeps it in place). A hidden error's extra column
    stays 0. Each operation is one stacked numpy call on per-model slices,
    so each model sees the same arithmetic in the same order as when
    stepped alone: a stacked step is bit-identical to r single-model steps.

    `emit` writes one step down as (ufunc, args) calls. Per (r, b), the
    stack caches the calls of a step of models 0..r-1 on b rows as runs
    that touch only its own views, each followed by one call that reads a
    per-call operand (`_SLOTS`); `program` fills those in for one `train`
    call's steps. A stack, its program and the batch, error, correction
    and scale tables that program reads live only for one `train` call.
    `forward` builds no stack: it makes the same forward calls
    (`_forward_calls`) on one buffer per layer, sized by its own rows.
    """

    def __init__(self, arch: ArchSpec, params: np.ndarray, rows: int, learning_rate: float = 0.0):
        self.arch = arch
        self.params = params
        self.grad = np.zeros_like(params)
        self.moments = np.zeros((2,) + params.shape)
        self._scratch = np.empty_like(self.moments)
        self._blocks = _layer_views(params, arch)
        self._grads = _layer_views(self.grad, arch)
        # m and v decay, full size like the moments, and gain, one 0-d array each
        self._decay = np.broadcast_to(np.reshape(ADAM_BETAS, (2, 1, 1)), self.moments.shape).copy()
        self._gain = [np.array(1.0 - beta) for beta in ADAM_BETAS]
        self._lr = np.array(learning_rate, dtype=np.float64)  # read by Adam steps only
        cap = params.shape[0] * rows
        self._widths = _widths(arch)
        # hidden rows end in a ones column, and their errors in a 0 that no call changes
        self._act_mem = [np.ones(cap * w) for w in self._widths]
        self._delta_mem = [np.zeros(cap * w) for w in self._widths]
        # tanh and sigmoid map a pre-activation's +inf last column to exactly 1: the ones
        self._pre_mem = self._act_mem if arch.activation == "relu" else (
            [np.full(cap * w, np.inf) for w in self._widths[:-1]] + self._act_mem[-1:]
        )
        self._tmp_mem = np.empty(cap * max(self._widths))
        self._segments: dict[tuple[int, int], tuple[list, list]] = {}

    def emit(self, lo: int, hi: int, b: int, x, xt, y, err, corr, scale) -> tuple[list, list, list]:
        """Forward, backward and Adam calls of one step of models lo..hi-1 on b rows.

        x (hi - lo, b, d + 1) is the batch with its ones column, xt its
        (hi - lo, d + 1, b) transpose and y the batch alone, x[..., :d];
        backward writes each model's raw error out - y into err and the
        output layer's error, err times scale (0-d, or (hi - lo, b, d)),
        into its buffer, and Adam reads each model's 1 - beta1**t and
        1 - beta2**t from corr (2, hi - lo, 1). Forward's last call
        returns the reconstruction.
        """
        r, kind = hi - lo, self.arch.activation
        dims = self.arch.layer_dims()[1:]
        acts, deltas, pres = ([mem[: r * b * w].reshape(r, b, w) for mem, w in zip(mems, self._widths)]
                              for mems in (self._act_mem, self._delta_mem, self._pre_mem))
        errors = [buf[..., :d] for buf, d in zip(deltas, dims)]
        blocks, grads = [w[lo:hi] for w in self._blocks], [g[lo:hi] for g in self._grads]
        last = len(acts) - 1
        fwd = _forward_calls(kind, blocks, x, pres, acts)
        bwd = [(np.subtract, (acts[-1], y, err)), (np.multiply, (err, scale, deltas[-1]))]
        for k in range(last, 0, -1):
            a, prev = acts[k - 1], deltas[k - 1]
            tmp = self._tmp_mem[: a.size].reshape(a.shape)
            bwd += [
                (np.matmul, (a.transpose(0, 2, 1), errors[k], grads[k])),
                (np.matmul, (errors[k], blocks[k][:, :-1].transpose(0, 2, 1), errors[k - 1])),
            ]
            # derivative expressed via the activation output a, in place
            if kind == "tanh":  # 1 - a*a
                bwd += [(np.multiply, (a, a, a)), (np.subtract, (_ONE, a, a))]
            elif kind == "relu":
                bwd.append((np.greater, (a, _ZERO, a)))
            else:  # sigmoid: a * (1 - a)
                bwd += [(np.subtract, (_ONE, a, tmp)), (np.multiply, (a, tmp, a))]
            bwd.append((np.multiply, (prev, a, prev)))
        bwd.append((np.matmul, (xt, errors[0], grads[0])))
        params, grad, moments = self.params[lo:hi], self.grad[lo:hi], self.moments[:, lo:hi]
        scratch = self._scratch[:, lo:hi]
        m_hat, v_hat = scratch
        adam = [
            (np.multiply, (moments, self._decay[:, lo:hi], moments)),
            (np.multiply, (grad, self._gain[0], m_hat)),
            (np.multiply, (grad, self._gain[1], v_hat)),
            (np.multiply, (v_hat, grad, v_hat)),  # (1 - beta2) * grad * grad
            (np.add, (moments, scratch, moments)),
            (np.divide, (moments, corr, scratch)),
            (np.sqrt, (v_hat, v_hat)),
            (np.add, (v_hat, _EPS, v_hat)),
            (np.multiply, (m_hat, self._lr, m_hat)),
            (np.divide, (m_hat, v_hat, m_hat)),
            (np.subtract, (params, m_hat, params)),
        ]
        return fwd, bwd, adam

    def segments(self, r: int, b: int) -> tuple[list, list]:
        """The calls of one step of models 0..r-1 on b rows (cached).

        Returns (run, ufunc, args, pick) entries and a final run: a run is
        calls on the stack's own views, and pick(args + operands) gives the
        args of the call that follows it, which reads a per-call operand.
        """
        if (r, b) not in self._segments:
            entries, run = [], []
            for f, args in itertools.chain(*self.emit(0, r, b, *_SLOTS)):
                if not any(isinstance(a, str) for a in args):
                    run.append((f, args))
                    continue
                # indices into args + operands: each slot's operand, every other arg as is
                picks = (len(args) + _SLOTS.index(a) if isinstance(a, str) else i
                         for i, a in enumerate(args))
                entries.append((run, f, args, itemgetter(*picks)))
                run = []
            self._segments[r, b] = entries, run
        return self._segments[r, b]

    def program(self, steps) -> list:
        """The calls of steps (r, x, err, corr, scale) of models 0..r-1, in order, as one flat list."""
        program = []
        for r, x, *rest in steps:
            entries, final = self.segments(r, x.shape[1])
            operands = _operands(x, *rest)
            for run, f, args, pick in entries:
                program += run
                program.append((f, pick(args + operands)))
            program += final
        return program


@dataclass
class TrainConfig:
    epochs: int = 80
    batch_size: int = 16
    learning_rate: float = 0.001

    def validate(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


class AdamState:
    """Adam moment estimates; reusable across train() calls to continue a run."""

    def __init__(self, n_params: int):
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0


def train(
    model: list[AutoencoderModel],
    data,
    cfg: TrainConfig,
    optimizer: list[AdamState | None] | None = None,
    shuffle_rng: list[np.random.Generator | None] | None = None,
    *,
    _round_end: tuple[int, Callable[[np.ndarray, np.ndarray], object]] | None = None,
) -> list[list[float]]:
    """Mini-batch Adam training of a list of models; returns each one's mean loss per epoch.

    `model` lists models of one architecture; `data`, `optimizer` and
    `shuffle_rng` hold one entry per model (the last two may be None or
    hold None). All train in lockstep, and every model's trace (in input
    order), weights and optimizer state equal those of training it alone,
    bit for bit. Pass a persistent AdamState and shuffle generator to
    continue a previous run (federated clients do); otherwise Adam starts
    fresh and the shuffle stream is np.random.default_rng(0). The last
    partial batch is kept: it is one more step, padded with rows that
    count for nothing.

    `_round_end` (every, callback), for federated rounds only, calls
    callback(params, where) after each `every` epochs. params is the
    training stack's (R, P) parameter block and where[i] the row of input
    i in it: weights written into those rows train on. The models
    themselves get their weights only when the call ends.
    """
    cfg.validate()
    if not isinstance(model, (list, tuple)) or not model:
        raise ValueError("no models to train: train takes a list of models, as in train([model], [x], cfg)")
    models = list(model)
    datas, opts, rngs = (
        _per_model(arg, len(models), name)
        for arg, name in ((data, "data"), (optimizer, "optimizer"), (shuffle_rng, "shuffle_rng"))
    )
    arch, n_params = models[0].arch, models[0].n_params
    xs = []
    for mdl, values, opt in zip(models, datas, opts):
        if mdl.arch != arch:
            raise ValueError(f"models differ in architecture: {mdl.arch} vs {arch}")
        x = _check_batch(mdl, values.values if hasattr(values, "values") else values)
        if x.shape[0] == 0:
            raise ValueError("cannot train on an empty dataset")
        if opt is not None and not (opt.m.shape == opt.v.shape == (n_params,)):
            raise ValueError(f"optimizer state does not hold {n_params} parameters")
        xs.append(x)
    for items, name in ((models, "model"), (opts, "optimizer"), (rngs, "shuffle_rng")):
        given = [id(item) for item in items if item is not None]
        if len(set(given)) < len(given):
            raise ValueError(f"the same {name} is passed for two models")
    opts = [opt if opt is not None else AdamState(n_params) for opt in opts]
    rngs = [g if g is not None else np.random.default_rng(0) for g in rngs]
    return _train_lockstep(models, xs, cfg, opts, rngs, _round_end)


def _per_model(arg, count: int, name: str) -> list:
    if arg is None:
        return [None] * count
    if not isinstance(arg, (list, tuple)) or len(arg) != count:
        raise ValueError(f"{name} must be a list with one entry per model ({count})")
    return list(arg)


def _train_lockstep(models, xs, cfg: TrainConfig, opts, rngs, round_end=None) -> list[list[float]]:
    """Train validated models together; returns their traces in input order.

    Each epoch every model takes ceil(rows / batch_size) steps of
    batch_size rows: its partial last batch (its "tail", of t rows) is
    padded with rows of zeros, whose errors the step scales by 0, and the
    tail's real rows by 2 / (t * d) where a full batch's take
    2 / (batch_size * d); the tail's loss reads its real rows only. So
    every step has one shape, and models stacked stably by descending
    step count are at each step j an active prefix [:r]; a step holding a
    tail takes its scale as an output-shaped operand, every other one the
    0-d one.

    Each epoch replays one flat program of numpy calls, assembled once
    per call from a stack built for the call, gathers its Adam
    corrections in one call and books every loss in six. Round ends
    (see `train`) see the stack's rows; Adam's state and the shuffle
    streams carry on in the stack.
    """
    size, dim, count = cfg.batch_size, models[0].arch.input_dim, len(models)
    order = sorted(range(count), key=lambda i: -math.ceil(len(xs[i]) / size))
    xs = [xs[i] for i in order]
    steps = [math.ceil(len(x) / size) for x in xs]
    last = steps[0]
    # the real rows of model p's batch at step j: 0 where it takes no step
    rows = np.clip(np.array([len(x) for x in xs]) - size * np.arange(last)[:, None], 0, size)
    stepping = rows > 0
    active = np.count_nonzero(stepping, axis=1).tolist()
    stack = _Stack(models[0].arch, np.stack([models[i]._flat for i in order]), size, cfg.learning_rate)
    stack.moments[:] = [[opts[i].m for i in order], [opts[i].v for i in order]]
    t0 = [opts[i].t for i in order]
    every, callback = round_end or (0, None)

    # one row per step: batch j sits in row j + 1, with its ones column, and its step
    # writes each model's raw error out - x, size * dim values, into the start of
    # row j, whose batch the step before used. Each epoch rewrites the ones
    table = np.zeros((last + 1, count * size * (dim + 1)))
    batches = table[1:].reshape(last, count, size, dim + 1)
    errors = table[:, : count * size * dim].reshape(last + 1, count, size * dim)
    # a step's loss reads the errors of its real rows only: none of a padding row or of
    # a model that takes no step, whose squared rows can be inf (and whose 0 divides by
    # any nonzero size)
    real = np.arange(size) < rows[..., None]
    counted = np.repeat(real, dim, axis=2)
    sizes = np.where(stepping, rows, size) * float(dim)
    losses, sums = np.empty(rows.shape), np.empty(rows.shape)
    ledger, row_counts = np.empty((cfg.epochs, count)), np.array([x.size for x in xs], dtype=float)
    # each step's 1 - beta1**t and 1 - beta2**t, by step, moment and model
    corrections = np.empty((last, 2, count, 1))
    # one flat table of them: beta1's, then beta2's, each one stretch of t per first t
    # that models start from, as Python float powers like a lone model's Adam step
    # takes (numpy power can differ in the last bit)
    ends = {}
    for start, n in zip(t0, steps):
        ends[start] = max(ends.get(start, start), start + cfg.epochs * n)
    offsets, length = {}, 0
    for start, end in ends.items():
        offsets[start], length = length, length + end - start
    powers = np.concatenate([
        np.fromiter((1.0 - beta**t for start, end in ends.items() for t in range(start + 1, end + 1)), float, length)
        for beta in ADAM_BETAS
    ])
    # where each entry a step reads sits in the table at the first epoch, and how far
    # it moves each epoch; an entry no step reads stays at 0
    at = np.where(stepping, np.arange(last)[:, None] + [offsets[t] for t in t0], 0)
    at = at[:, None] + np.array([0, length])[:, None]
    stride = np.where(stepping, steps, 0)[:, None]
    # a step that holds a tail scales each real error row by 2 / (rows * d) and a
    # padding row by 0, through one output-shaped operand; the others take the 0-d
    # 2 / (size * d) of _operands
    scales = [
        None if real[j, :r].all()
        else np.repeat(np.where(real[j, :r], 2.0 / sizes[j, :r, None], 0.0)[..., None], dim, axis=2)
        for j, r in enumerate(active)
    ]
    program = stack.program(
        (r, batches[j, :r], errors[j, :r].reshape(r, size, dim), corrections[j, :, :r], scales[j])
        for j, r in enumerate(active)
    )
    where = np.argsort(order)
    for epoch in range(cfg.epochs):
        batches[..., dim] = 1.0
        for p, x in enumerate(xs):
            shuffled = x.take(rngs[order[p]].permutation(len(x)), axis=0)
            full, tail = divmod(len(x), size)
            batches[:full, p, :, :dim] = shuffled[: full * size].reshape(full, size, dim)
            if tail:  # then rows of zeros: the table's rows held last epoch's squared errors
                batches[full, p, :tail, :dim] = shuffled[full * size :]
                batches[full, p, tail:] = 0.0
        powers.take(at, out=corrections[..., 0], mode="clip")
        at += stride
        for f, args in program:
            f(*args)
        # each model's batch losses weighted by their size and summed in step order,
        # as a lone model's epoch does (add.reduce along the steps would not keep it)
        np.square(table, out=table)  # the whole table: numpy would copy the error view
        np.add.reduce(errors[:last], 2, None, losses, where=counted)
        losses /= sizes
        losses *= sizes
        np.add.accumulate(losses, 0, None, sums)
        np.divide(sums[-1], row_counts, out=ledger[epoch])
        if callback is not None and (epoch + 1) % every == 0:
            callback(stack.params, where)

    out = [None] * count
    for p, (i, trace) in enumerate(zip(order, ledger.T.tolist())):
        models[i]._flat[:] = stack.params[p]
        opts[i].m[:] = stack.moments[0, p]
        opts[i].v[:] = stack.moments[1, p]
        opts[i].t = t0[p] + cfg.epochs * steps[p]
        out[i] = trace
    return out


def get_weights(model: AutoencoderModel) -> np.ndarray:
    """Flat float64 parameter vector, canonical order (copy)."""
    return model._flat.copy()


def set_weights(model: AutoencoderModel, vector) -> None:
    vec = np.asarray(vector, dtype=np.float64)
    if vec.shape != (model.n_params,):
        raise ValueError(
            f"weight vector has length {vec.shape}, model needs ({model.n_params},)"
        )
    model._flat[:] = vec


def serialize(model: AutoencoderModel) -> bytes:
    """Pack the model into the AEFL v1 container.

    Layout: magic "AEFL", version byte, layer count (u8), then rows/cols
    per layer (u16 little-endian each), then every parameter as IEEE-754
    float32 little-endian, weight matrix row-major then bias, encoder
    first.
    """
    parts = [_MAGIC, struct.pack("<BB", _VERSION, len(model.weights))]
    for w in model.weights:
        parts.append(struct.pack("<HH", w.shape[0], w.shape[1]))
    parts.append(model._flat.astype("<f4").tobytes())
    return b"".join(parts)


def deserialize(blob: bytes, activation: str = "tanh") -> AutoencoderModel:
    """Rebuild a model from the AEFL container.

    The container does not record the activation; pass it when the model
    was not built with the default.
    """
    if len(blob) < 6:
        raise ValueError("container truncated: missing header")
    if blob[:4] != _MAGIC:
        raise ValueError("bad container magic")
    version, n_layers = struct.unpack_from("<BB", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    if n_layers == 0 or n_layers % 2 != 0:
        raise ValueError("layer count must be a positive even number")

    offset = 6
    shapes = []
    for _ in range(n_layers):
        if offset + 4 > len(blob):
            raise ValueError("container truncated: missing layer shapes")
        shapes.append(struct.unpack_from("<HH", blob, offset))
        offset += 4

    dims = [shapes[0][0]] + [cols for _, cols in shapes]
    for i in range(n_layers):
        if shapes[i][0] != dims[i]:
            raise ValueError("inconsistent layer shapes")
    if dims != list(reversed(dims)):
        raise ValueError("layer stack is not a mirrored autoencoder")

    arch = ArchSpec(
        input_dim=dims[0],
        hidden_sizes=tuple(dims[1 : 1 + n_layers // 2]),
        activation=activation,
    )
    expected = param_count(arch)
    payload = blob[offset:]
    if len(payload) != expected * 4:
        raise ValueError(
            f"container payload holds {len(payload)} bytes, expected {expected * 4}"
        )
    params = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(params).all():
        raise ValueError("container holds NaN or infinite parameters")
    model = AutoencoderModel(arch)
    model._flat[:] = params
    return model
