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
    return _run(_forward_calls(arch.activation, blocks, n, x, x[..., :-1], bufs, bufs))[0]


def _widths(arch: ArchSpec) -> list[int]:
    """Columns of each layer's activation buffer: its units and, but for the output, a ones column."""
    return [d + 1 for d in arch.layer_dims()[1:-1]] + [arch.input_dim]


def _forward_calls(kind: str, blocks, b: int, x, y, pres, acts) -> list:
    """Forward calls of r models on b rows; the last one returns the reconstruction.

    blocks are the layers' (r, fan_in + 1, fan_out) views, x (r, b, d + 1)
    the batch with its ones column and y the batch alone, x[..., :d].
    Each layer's matmul writes the units of its pre-activation buffer, and
    its activation (none on the output layer) reads that buffer whole into
    its activation buffer, the same one or another; each hidden buffer
    carries a last column the activation maps to exactly 1, the next
    layer's ones column.

    The folded matmuls follow the BLAS kernel's summation order. With
    numpy 2.4.6 on OpenBLAS (SkylakeX), they gave the bits of the
    unfolded matmul, bias add and row sum for the 5-32-5 net at every b
    from 2 to 699, and for its forward up to 6,000 rows; from 700 to
    6,000 rows its gradient differed in the last bit in 4 of 60 random
    cases. A layer of 1 unit, and a layer of 15 or more inputs into 2-4,
    9, 12, 17 or 33 units, differed at small b too. A one-row forward
    always differed, so a one-row step keeps the matmul and bias add.
    """
    calls, a, a_units, last = [], x, y, len(blocks) - 1
    for k, (block, pre, z) in enumerate(zip(blocks, pres, acts)):
        d = block.shape[-1]
        units = pre[..., :d]  # strided, but for the output layer
        if b == 1:  # a one-row matmul sums in another order than the fold's
            calls.append((np.matmul, (a_units, block[:, :-1], units)))
            calls.append((np.add, (units, block[:, -1:], units)))
        else:
            calls.append((np.matmul, (a, block, units)))
        if k < last:
            if kind == "tanh":
                calls.append((np.tanh, (pre, z)))
            elif kind == "relu":  # a positional out is deprecated for np.maximum
                calls.append((partial(np.maximum, out=z), (z, _ZERO)))
            else:  # sigmoid: 1 / (1 + exp(-z))
                calls += [(np.negative, (pre, z)), (np.exp, (z, z))]
                calls += [(np.add, (z, _ONE, z)), (np.divide, (_ONE, z, z))]
        a, a_units = z, z[..., :d]
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
# alone (the reconstruction target), its error rows and its corrections
_SLOTS = ("x", "xt", "y", "err", "corr")


def _operands(x, err, corr) -> tuple:
    """A step's operands in `_SLOTS` order, from its (r, b, d + 1) batch x (None: Adam only)."""
    if x is None:
        return None, None, None, err, corr
    return x, x.transpose(0, 2, 1), x[..., :-1], err, corr


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

    `emit` writes one step down as (ufunc, args) calls. Per (lo, hi, b)
    and parts of a step (all of it, forward and backward only, or Adam
    only), the stack caches those calls as runs that touch only its own
    views, each followed by one call that reads a per-call operand
    (`_SLOTS`); `program` fills those in for one `train` call's steps. A
    stack, its program and the batch, error and correction tables that
    program reads live only for one `train` call. `forward` builds no
    stack: it makes the same forward calls (`_forward_calls`) on one
    buffer per layer, sized by its own rows.
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
        self._segments: dict[tuple, tuple[list, list]] = {}

    def emit(self, lo: int, hi: int, b: int, x, xt, y, err, corr) -> tuple[list, list, list]:
        """Forward, backward and Adam calls of one step of models lo..hi-1 on b rows.

        x (hi - lo, b, d + 1) is the batch with its ones column, xt its
        (hi - lo, d + 1, b) transpose and y the batch alone, x[..., :d];
        backward writes each model's raw error out - y into err, and Adam
        reads each model's 1 - beta1**t and 1 - beta2**t from corr
        (2, hi - lo, 1). Forward's last call returns the reconstruction.
        """
        r, kind = hi - lo, self.arch.activation
        dims = self.arch.layer_dims()[1:]
        acts, deltas, pres = ([mem[: r * b * w].reshape(r, b, w) for mem, w in zip(mems, self._widths)]
                              for mems in (self._act_mem, self._delta_mem, self._pre_mem))
        errors = [buf[..., :d] for buf, d in zip(deltas, dims)]
        blocks, grads = [w[lo:hi] for w in self._blocks], [g[lo:hi] for g in self._grads]
        last = len(acts) - 1
        fwd = _forward_calls(kind, blocks, b, x, y, pres, acts)
        # an Adam-only step (b = 0) scales nothing
        scale = np.array(2.0 / max(b * self.arch.input_dim, 1))
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

    def segments(self, lo: int, hi: int, b: int, parts: tuple[int, ...]) -> tuple[list, list]:
        """Parts (0 forward, 1 backward, 2 Adam) of one step of models lo..hi-1 on b rows (cached).

        Returns (run, ufunc, args, pick) entries and a final run: a run is
        calls on the stack's own views, and pick(args + operands) gives the
        args of the call that follows it, which reads a per-call operand.
        """
        key = (lo, hi, b, parts)
        if key not in self._segments:
            entries, run = [], []
            emitted = self.emit(lo, hi, b, *_SLOTS)
            for f, args in (call for k in parts for call in emitted[k]):
                if not any(isinstance(a, str) for a in args):
                    run.append((f, args))
                    continue
                # indices into args + operands: each slot's operand, every other arg as is
                picks = (len(args) + _SLOTS.index(a) if isinstance(a, str) else i
                         for i, a in enumerate(args))
                entries.append((run, f, args, itemgetter(*picks)))
                run = []
            self._segments[key] = entries, run
        return self._segments[key]

    def program(self, steps) -> list:
        """The calls of steps (lo, hi, x, err, corr), in order, as one flat list.

        A step without corr runs forward and backward only, one without x
        Adam only.
        """
        program = []
        for lo, hi, x, err, corr in steps:
            parts = (2,) if x is None else (0, 1) if corr is None else (0, 1, 2)
            entries, rest = self.segments(lo, hi, 0 if x is None else x.shape[1], parts)
            operands = _operands(x, err, corr)
            for run, f, args, pick in entries:
                program += run
                program.append((f, pick(args + operands)))
            program += rest
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
    partial batch is kept.

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

    Models are stacked in descending order of full batches, so at
    full-batch step j the models still active are a prefix [:r]. The
    partial last batches ("tails") follow the full steps: one forward and
    backward step per run of adjacent equal tails, then one Adam step per
    run of adjacent tailed models, which keeps every model's step order.
    Models with as many full batches are ordered so that those runs are
    fewest (`_stack_order`).

    Each epoch replays one flat program of numpy calls, assembled once
    per call from a stack built for the call, gathers its Adam
    corrections in one call and books every loss in seven. Round ends
    (see `train`) see the stack's rows; Adam's state and the shuffle
    streams carry on in the stack.
    """
    size, dim, count = cfg.batch_size, models[0].arch.input_dim, len(models)
    order = _stack_order([len(x) // size for x in xs], [len(x) % size for x in xs])
    xs = [xs[i] for i in order]
    full = [len(x) // size for x in xs]
    tail = [len(x) % size for x in xs]
    steps = [f + (t > 0) for f, t in zip(full, tail)]
    stepping = np.arange(full[0])[:, None] < np.array(full)  # model p takes full step j
    active = np.count_nonzero(stepping, axis=1).tolist()
    stack = _Stack(models[0].arch, np.stack([models[i]._flat for i in order]), size, cfg.learning_rate)
    stack.moments[:] = [[opts[i].m for i in order], [opts[i].v for i in order]]
    t0 = [opts[i].t for i in order]
    every, callback = round_end or (0, None)

    # one row per step: batch j sits in row j + 1, with its ones column, and its step
    # writes each model's raw error out - x, size * dim values, into the start of
    # row j, whose batch the step before used; every tail writes into the last row
    # once the full steps are done. Each epoch rewrites the ones
    last = full[0]
    table = np.zeros((last + 1, count * size * (dim + 1)))
    batches = table[1:].reshape(last, count, size, dim + 1)
    errors = table[:, : count * size * dim].reshape(last + 1, count, size * dim)
    # a slot's loss is np.mean of its squared errors: their sum over their count. A
    # slot that no step of its model writes stays out of the weighting (times 0, an
    # overflowed inf in it would read nan)
    used = np.vstack([stepping, np.array(tail) > 0])
    tail_used = np.arange(size * dim) < np.array(tail)[:, None] * dim
    sizes = np.full(used.shape, float(size * dim))
    sizes[last] = [t * dim or size * dim for t in tail]
    losses, weighted, sums = np.empty(used.shape), np.zeros(used.shape), np.empty(used.shape)
    ledger, row_counts = np.empty((cfg.epochs, count)), np.array([x.size for x in xs], dtype=float)
    # each step's 1 - beta1**t and 1 - beta2**t, by step, moment and model; the last
    # row holds the tails'
    corrections = np.empty((last + 1, 2, count, 1))
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
    at = np.minimum(np.arange(last + 1)[:, None], full) + [offsets[t] for t in t0]
    at = np.where(used, at, 0)[:, None] + np.array([0, length])[:, None]
    stride = np.where(used, steps, 0)[:, None]
    program_steps = [
        (0, r, batches[j, :r], errors[j, :r].reshape(r, size, dim), corrections[j, :, :r])
        for j, r in enumerate(active)
    ]
    tails = []  # each model's tail, a view of its run's buffer
    for t, lo, hi in _runs(tail):
        run = np.ones((hi - lo, t, dim + 1))
        tails.extend(run)
        if t:  # forward and backward only
            program_steps.append((lo, hi, run, errors[last, lo:hi, : t * dim].reshape(hi - lo, t, dim), None))
    program_steps += [  # one Adam step per run of models with a tail
        (lo, hi, None, None, corrections[last, :, lo:hi]) for tailed, lo, hi in _runs(map(bool, tail)) if tailed
    ]
    program = stack.program(program_steps)
    where = np.argsort(order)
    for epoch in range(cfg.epochs):
        batches[..., dim] = 1.0
        for p, x in enumerate(xs):
            shuffled = x.take(rngs[order[p]].permutation(len(x)), axis=0)
            cut = full[p] * size
            batches[: full[p], p, :, :dim] = shuffled[:cut].reshape(full[p], size, dim)
            tails[p][:, :dim] = shuffled[cut:]
        powers.take(at, out=corrections[..., 0], mode="clip")
        at += stride
        for f, args in program:
            f(*args)
        # each model's batch losses weighted by their size and summed in step order,
        # as a lone model's epoch does (add.reduce along the steps would not keep it)
        np.square(table, out=table)  # the whole table: numpy would copy the error view
        np.add.reduce(errors[:last], 2, None, losses[:last])
        np.add.reduce(errors[last], 1, None, losses[last], where=tail_used)
        losses /= sizes
        np.multiply(losses, sizes, out=weighted, where=used)
        np.add.accumulate(weighted, 0, None, sums)
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


def _stack_order(full: list[int], tail: list[int]) -> list[int]:
    """Model order for the stack: full-batch counts descending, then the fewest tail steps.

    Among models with as many full batches, tails may come in any order.
    Each distinct tail forms one block, and zero tails one block at the
    front, the back or between the first and last block; a dynamic
    program over the groups, keyed by the last tail so far, picks the
    blocks that make the fewest tail steps (`_tail_steps`). Models with
    equal counts keep their input order.
    """
    groups: dict[int, dict[int, list[int]]] = {}
    for i, (f, t) in enumerate(zip(full, tail)):
        groups.setdefault(f, {}).setdefault(t, []).append(i)
    best = {0: ([], [])}  # last tail -> the tails and (group, tails) blocks of the best order so far
    for f in sorted(groups, reverse=True):
        values = sorted((t for t in groups[f] if t), reverse=True)
        zeros = [0] if 0 in groups[f] else []
        options = [] if values else [zeros]
        for first, last in itertools.product(values, repeat=2):
            if first == last and len(values) > 1:
                continue
            inner = [v for v in values if v not in (first, last)]
            tailed = [first] + inner + ([last] if last != first else [])
            options += [zeros + tailed, tailed + zeros] if zeros else [tailed]
            if zeros and first != last:
                options.append([first] + inner + zeros + [last])
        ends = {}
        for tails, blocks in best.values():
            for seq in options:
                if seq[-1] not in ends or _tail_steps(tails + seq) < _tail_steps(ends[seq[-1]][0]):
                    ends[seq[-1]] = tails + seq, blocks + [(f, seq)]
        best = ends
    _, blocks = min(best.values(), key=lambda order: _tail_steps(order[0]))
    return [i for f, seq in blocks for t in seq for i in groups[f][t]]


def _tail_steps(tails) -> tuple[int, int]:
    """Tail steps of an order of tails: forward and backward steps (runs of equal
    nonzero tails) plus Adam steps (runs of nonzero tails), then the former alone."""
    steps, adam = (sum(1 for key, _, _ in _runs(keys) if key) for keys in (tails, map(bool, tails)))
    return steps + adam, steps


def _runs(keys) -> list[tuple[object, int, int]]:
    """(key, lo, hi) of each run of equal adjacent keys."""
    keys = list(keys)
    cuts = [0] + [p for p in range(1, len(keys)) if keys[p] != keys[p - 1]] + [len(keys)]
    return [(keys[lo], lo, hi) for lo, hi in zip(cuts, cuts[1:])]


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
