"""Minimal dense autoencoder on numpy.

Encoder and decoder are mirror images: a net with hidden sizes [h1, h2]
runs input -> h1 -> h2 -> h1 -> input, activation on every layer except
the linear output. Parameters live in one flat float64 vector (layer
weight matrices row-major, then biases, encoder first), which is also
the canonical order for weight exchange and serialization. Training is
mini-batch Adam on mean squared reconstruction error. Arithmetic is
64-bit; the wire format stores parameters as 32-bit floats.
"""

from __future__ import annotations

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
        self.weights, self.biases = _layer_views(self._flat, arch)

    @property
    def n_params(self) -> int:
        return self._flat.size


def _layer_views(flat: np.ndarray, arch: ArchSpec):
    """Per-layer weight and bias views of a flat vector or an (R, P) block.

    A vector gives (fan_in, fan_out) weights and (fan_out,) biases; a block
    of R stacked models gives (R, fan_in, fan_out) and (R, 1, fan_out).
    """
    dims = arch.layer_dims()
    lead = flat.shape[:-1]
    bias_lead = lead + (1,) if lead else ()
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        block = flat[..., offset : offset + fan_in * fan_out]
        weights.append(block.reshape(lead + (fan_in, fan_out)))
        offset += fan_in * fan_out
        biases.append(flat[..., offset : offset + fan_out].reshape(bias_lead + (fan_out,)))
        offset += fan_out
    return weights, biases


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


def payload_kb(n_params: int) -> float:
    """Parameter payload in KB (1024 bytes) for a given parameter count."""
    return n_params * 4 / 1024.0


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
    x = _check_batch(model, batch)[None]
    stack = _Stack(model.arch, model._flat[None], x.shape[1])
    return _run(stack.emit(0, 1, x.shape[1], x, None, None, None)[0])[0]


def _check_batch(model: AutoencoderModel, batch) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.arch.input_dim:
        raise ValueError(
            f"batch must be (n, {model.arch.input_dim}), got {x.shape}"
        )
    return x


def loss_and_gradient(model: AutoencoderModel, batch) -> tuple[float, np.ndarray]:
    """Reconstruction MSE of a batch and its gradient in flat canonical order."""
    x = _check_batch(model, batch)[None]
    if x.shape[1] == 0:
        raise ValueError("the loss of an empty batch is undefined")
    stack = _Stack(model.arch, model._flat[None], x.shape[1])
    err = np.empty_like(x)
    fwd, bwd, _ = stack.emit(0, 1, x.shape[1], x, x.transpose(0, 2, 1), err, None)
    _run(fwd + bwd)
    return float(np.add.reduce(np.square(err).reshape(-1)) / err.size), stack.grad[0]


def _run(calls):
    """Make (ufunc, args) calls in order; returns what the last one returned."""
    for f, args in calls:
        out = f(*args)
    return out


# a step's per-call operands: its batch, the batch transposed, its error rows and corrections
_SLOTS = ("x", "xt", "err", "corr")


class _Stack:
    """R same-architecture models that one program of numpy calls steps together.

    Parameters and gradients are (R, P) blocks in flat canonical order,
    and Adam's m and v one (2, R, P) block; each layer's weights
    (R, fan_in, fan_out) and biases (R, 1, fan_out) are views of a block.
    Activations and back-propagated errors live in buffers allocated once
    and viewed as (r, b, d) for r models of b rows. Every operation is one
    stacked numpy call on C-contiguous model slices, so each model sees
    the same arithmetic in the same order as when stepped alone: a stacked
    step is bit-identical to r single-model steps.

    `emit` writes one step down as (ufunc, args) calls. Per (lo, hi, b)
    and parts of a step (all of it, forward and backward only, or Adam
    only), the stack caches those calls as runs that touch only its own
    views, each followed by one call that reads a per-call operand
    (`_SLOTS`); `program` fills those in for one `train` call's steps. A
    stack, its program and the batch, error and correction tables that
    program reads live only for one `train` call.
    """

    def __init__(self, arch: ArchSpec, params: np.ndarray, rows: int, learning_rate: float = 0.0):
        self.arch = arch
        self.params = params
        self.grad = np.zeros_like(params)
        self.moments = np.zeros((2,) + params.shape)
        self._scratch = np.empty_like(self.moments)
        self._weights, self._biases = _layer_views(params, arch)
        self._g_w, self._g_b = _layer_views(self.grad, arch)
        # m and v decay and gain, as (2, 1, 1) columns against the moments
        self._decay = np.array(ADAM_BETAS).reshape(2, 1, 1)
        self._gain = 1.0 - self._decay
        self._lr = learning_rate  # read by Adam steps only
        dims = arch.layer_dims()[1:]
        cap = params.shape[0] * rows
        self._act_mem = [np.empty(cap * d) for d in dims]
        self._delta_mem = [np.empty(cap * d) for d in dims]
        self._tmp_mem = np.empty(cap * max(dims))
        self._segments: dict[tuple, tuple[list, list]] = {}

    def emit(self, lo: int, hi: int, b: int, x, xt, err, corr) -> tuple[list, list, list]:
        """Forward, backward and Adam calls of one step of models lo..hi-1 on b rows.

        x (hi - lo, b, d) is the batch and xt its (hi - lo, d, b) transpose;
        backward writes each model's raw error out - x into err, and Adam
        reads each model's 1 - beta1**t and 1 - beta2**t from corr
        (2, hi - lo, 1). Forward's last call returns the reconstruction.
        """
        r, kind = hi - lo, self.arch.activation
        dims = self.arch.layer_dims()[1:]
        acts = [mem[: r * b * d].reshape(r, b, d) for mem, d in zip(self._act_mem, dims)]
        deltas = [mem[: r * b * d].reshape(r, b, d) for mem, d in zip(self._delta_mem, dims)]
        tmps = [self._tmp_mem[: r * b * d].reshape(r, b, d) for d in dims]
        weights = [w[lo:hi] for w in self._weights]
        g_w, g_b = [g[lo:hi] for g in self._g_w], [g[lo:hi] for g in self._g_b]
        last = len(acts) - 1
        fwd, a = [], x
        for k, (w, bias, z) in enumerate(zip(weights, self._biases, acts)):
            fwd += [(np.matmul, (a, w, z)), (np.add, (z, bias[lo:hi], z))]
            if k < last:
                if kind == "tanh":
                    fwd.append((np.tanh, (z, z)))
                elif kind == "relu":  # a positional out is deprecated for np.maximum
                    fwd.append((partial(np.maximum, out=z), (z, 0.0)))
                else:  # sigmoid: 1 / (1 + exp(-z))
                    fwd += [(np.negative, (z, z)), (np.exp, (z, z))]
                    fwd += [(np.add, (z, 1.0, z)), (np.divide, (1.0, z, z))]
            a = z
        # an empty batch (forward only) scales nothing
        scale = 2.0 / max(b * self.arch.input_dim, 1)
        bwd = [(np.subtract, (acts[-1], x, err)), (np.multiply, (err, scale, deltas[-1]))]
        for k in range(last, 0, -1):
            delta, a, prev = deltas[k], acts[k - 1], deltas[k - 1]
            bwd += [
                (np.matmul, (a.transpose(0, 2, 1), delta, g_w[k])),
                (np.add.reduce, (delta, 1, None, g_b[k], True)),  # axis 1, keepdims
                (np.matmul, (delta, weights[k].transpose(0, 2, 1), prev)),
            ]
            # derivative expressed via the activation output a, in place
            if kind == "tanh":  # 1 - a*a
                bwd += [(np.multiply, (a, a, a)), (np.subtract, (1.0, a, a))]
            elif kind == "relu":
                bwd.append((np.greater, (a, 0.0, a)))
            else:  # sigmoid: a * (1 - a)
                bwd += [(np.subtract, (1.0, a, tmps[k - 1])), (np.multiply, (a, tmps[k - 1], a))]
            bwd.append((np.multiply, (prev, a, prev)))
        bwd.append((np.matmul, (xt, deltas[0], g_w[0])))
        bwd.append((np.add.reduce, (deltas[0], 1, None, g_b[0], True)))
        params, grad, moments = self.params[lo:hi], self.grad[lo:hi], self.moments[:, lo:hi]
        scratch = self._scratch[:, lo:hi]
        m_hat, v_hat = scratch
        adam = [
            (np.multiply, (moments, self._decay, moments)),
            (np.multiply, (grad, self._gain, scratch)),
            (np.multiply, (v_hat, grad, v_hat)),  # (1 - beta2) * grad * grad
            (np.add, (moments, scratch, moments)),
            (np.divide, (moments, corr, scratch)),
            (np.sqrt, (v_hat, v_hat)),
            (np.add, (v_hat, ADAM_EPS, v_hat)),
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
            operands = (x, None if x is None else x.transpose(0, 2, 1), err, corr)
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


class AdamState:
    """Adam moment estimates; reusable across train() calls to continue a run."""

    def __init__(self, n_params: int):
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0


def train(
    model: AutoencoderModel | list[AutoencoderModel],
    data,
    cfg: TrainConfig,
    optimizer: AdamState | list[AdamState | None] | None = None,
    shuffle_rng: np.random.Generator | list[np.random.Generator | None] | None = None,
    *,
    _round_end: tuple[int, Callable[[list[np.ndarray]], object]] | None = None,
) -> list[float] | list[list[float]]:
    """Mini-batch Adam training; returns mean training loss per epoch.

    Pass a persistent AdamState and shuffle generator to continue a
    previous run (federated clients do); otherwise Adam starts fresh and
    the shuffle stream is np.random.default_rng(0). The last partial
    batch is kept.

    `model` may be a list of models of one architecture. `data`,
    `optimizer` and `shuffle_rng` are then lists of the same length (the
    last two may be None), all models train in lockstep, and one loss
    trace per model comes back in input order. Every model's weights,
    optimizer state and trace equal those of training it alone, bit for
    bit.

    `_round_end` (every, callback), for federated rounds only, calls
    callback(rows) after each `every` epochs. rows are the training
    stack's parameter vectors, as views in input order: weights written
    into them train on. The models themselves get their weights only when
    the call ends.
    """
    cfg.validate()
    many = isinstance(model, (list, tuple))
    models = list(model) if many else [model]
    if not models:
        raise ValueError("no models to train")
    datas, opts, rngs = (
        _per_model(arg, len(models), many, name)
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
        if not np.isfinite(x).all():
            raise ValueError("training data holds NaN or infinite values")
        if opt is not None and not (opt.m.shape == opt.v.shape == (n_params,)):
            raise ValueError(f"optimizer state does not hold {n_params} parameters")
        xs.append(x)
    for items, name in ((models, "model"), (opts, "optimizer"), (rngs, "shuffle_rng")):
        given = [id(item) for item in items if item is not None]
        if len(set(given)) < len(given):
            raise ValueError(f"the same {name} is passed for two models")
    opts = [opt if opt is not None else AdamState(n_params) for opt in opts]
    rngs = [g if g is not None else np.random.default_rng(0) for g in rngs]
    traces = _train_lockstep(models, xs, cfg, opts, rngs, _round_end)
    return traces if many else traces[0]


def _per_model(arg, count: int, many: bool, name: str) -> list:
    if not many:
        return [arg]
    if arg is None:
        return [None] * count
    if not isinstance(arg, (list, tuple)) or len(arg) != count:
        raise ValueError(f"{name} must be a list with one entry per model ({count})")
    return list(arg)


def _train_lockstep(models, xs, cfg: TrainConfig, opts, rngs, round_end=None) -> list[list[float]]:
    """Train validated models together; returns their traces in input order.

    Models are stacked in descending order of rows (stable), so at
    full-batch step j the models still active are a prefix [:r] and equal
    lengths sit side by side. The partial last batches ("tails") follow
    the full steps: one forward and backward step per run of adjacent
    equal tails, then one Adam step per run of adjacent tailed models,
    which keeps every model's step order.

    Each epoch replays one flat program of numpy calls, assembled once
    per call from a stack built for the call, and books every loss in
    seven numpy calls. Round ends (see `train`) see the stack's rows;
    Adam's state and the shuffle streams carry on in the stack.
    """
    size, dim, count = cfg.batch_size, models[0].arch.input_dim, len(models)
    order = sorted(range(count), key=lambda i: -len(xs[i]))
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

    # one row per (step, model): batch j sits in row j + 1, and its step writes its
    # raw error out - x into row j, which held batch j - 1; every tail writes into
    # the last row once the full steps are done
    last = full[0]
    errors = np.zeros((last + 1, count, size * dim))
    batches = errors[1:].reshape(last, count, size, dim)
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
    corrections = np.ones((last + 1, 2, count, 1))
    # row k of powers[t] holds them for step t + k + 1, as Python float powers like a
    # lone model's Adam step takes (numpy power can differ in the last bit); models
    # that start from the same t share one table
    ends = {}
    for start, n in zip(t0, steps):
        ends[start] = max(ends.get(start, start), start + cfg.epochs * n)
    powers = {
        start: np.stack(
            [np.fromiter((1.0 - beta**t for t in range(start + 1, end + 1)), float, end - start)
             for beta in ADAM_BETAS],
            axis=1,
        )
        for start, end in ends.items()
    }
    program_steps = [
        (0, r, batches[j, :r], errors[j, :r].reshape(r, size, dim), corrections[j, :, :r])
        for j, r in enumerate(active)
    ]
    tails = []  # each model's tail, a view of its run's buffer
    for t, lo, hi in _runs(tail):
        run = np.empty((hi - lo, t, dim))
        tails.extend(run)
        if t:  # forward and backward only
            program_steps.append((lo, hi, run, errors[last, lo:hi, : t * dim].reshape(run.shape), None))
    program_steps += [  # one Adam step per run of models with a tail
        (lo, hi, None, None, corrections[last, :, lo:hi]) for tailed, lo, hi in _runs(map(bool, tail)) if tailed
    ]
    program = stack.program(program_steps)
    rows = [stack.params[p] for p in np.argsort(order)]
    for epoch in range(cfg.epochs):
        for p, x in enumerate(xs):
            shuffled = x.take(rngs[order[p]].permutation(len(x)), axis=0)
            cut = full[p] * size
            batches[: full[p], p] = shuffled[:cut].reshape(full[p], size, dim)
            tails[p][:] = shuffled[cut:]
            block = powers[t0[p]][epoch * steps[p] : (epoch + 1) * steps[p]]
            corrections[: full[p], :, p, 0] = block[: full[p]]
            corrections[last, :, p, 0] = block[-1]  # read only if the model has a tail
        for f, args in program:
            f(*args)
        # each model's batch losses weighted by their size and summed in step order,
        # as a lone model's epoch does (add.reduce along the steps would not keep it)
        np.square(errors, out=errors)
        np.add.reduce(errors[:last], 2, None, losses[:last])
        np.add.reduce(errors[last], 1, None, losses[last], where=tail_used)
        losses /= sizes
        np.multiply(losses, sizes, out=weighted, where=used)
        np.add.accumulate(weighted, 0, None, sums)
        np.divide(sums[-1], row_counts, out=ledger[epoch])
        if callback is not None and (epoch + 1) % every == 0:
            callback(rows)

    out = [None] * count
    for p, (i, trace) in enumerate(zip(order, ledger.T.tolist())):
        models[i]._flat[:] = stack.params[p]
        opts[i].m[:] = stack.moments[0, p]
        opts[i].v[:] = stack.moments[1, p]
        opts[i].t = t0[p] + cfg.epochs * steps[p]
        out[i] = trace
    return out


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
    model = AutoencoderModel(arch)
    model._flat[:] = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return model
