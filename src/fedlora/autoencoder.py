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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ACTIVATIONS = ("relu", "tanh", "sigmoid")

_MAGIC = b"AEFL"
_VERSION = 0x01
_workspace: dict[tuple, _Stack] = {}  # _train_lockstep's one stack, by its key, between calls


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
    return _Stack(model.arch, model._flat[None], x.shape[1]).forward(0, 1, x)[-1][0]


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
    stack.backward(0, 1, x, stack.forward(0, 1, x), err)
    return float(np.add.reduce(np.square(err).reshape(-1)) / err.size), stack.grad[0]


class _Block(NamedTuple):
    """Models lo..hi-1 of a stack: row slices of its blocks and layer views."""

    params: np.ndarray
    grad: np.ndarray
    moments: np.ndarray  # (2, r, P): Adam's m and v
    scratch: np.ndarray  # (2, r, P)
    weights: list[np.ndarray]
    weights_t: list[np.ndarray]  # (r, fan_out, fan_in) transposed views
    biases: list[np.ndarray]
    g_w: list[np.ndarray]
    g_b: list[np.ndarray]


class _Buffers(NamedTuple):
    """Per-layer (r, b, d) views of a stack's work buffers."""

    acts: list[np.ndarray]
    acts_t: list[np.ndarray]  # (r, d, b) transposed views
    deltas: list[np.ndarray]
    tmps: list[np.ndarray]


class _Stack:
    """R same-architecture models that one kernel call steps together.

    Parameters and gradients are (R, P) blocks in flat canonical order,
    and Adam's m and v one (2, R, P) block; each layer's weights
    (R, fan_in, fan_out) and biases (R, 1, fan_out) are views of a block.
    Activations and back-propagated errors live in buffers allocated once
    and viewed as (r, b, d) for r models of b rows. Every operation is one
    stacked numpy call on C-contiguous model slices, so each model sees
    the same arithmetic in the same order as when stepped alone: a stacked
    step is bit-identical to r single-model steps.

    `_train_lockstep` keeps one stack, cached views and all, across calls
    with the same arch, R, rows and Adam settings (see `_workspace`).
    """

    def __init__(
        self, arch: ArchSpec, params: np.ndarray, rows: int, cfg: TrainConfig | None = None
    ):
        cfg = cfg or TrainConfig()
        self.arch = arch
        self.params = params
        self.grad = np.zeros_like(params)
        self.moments = np.zeros((2,) + params.shape)
        self._scratch = np.empty_like(self.moments)
        self._weights, self._biases = _layer_views(params, arch)
        self._g_w, self._g_b = _layer_views(self.grad, arch)
        # m and v decay and gain, as (2, 1, 1) columns against the moments
        self._decay = np.array([cfg.beta1, cfg.beta2]).reshape(2, 1, 1)
        self._gain = np.array([1.0 - cfg.beta1, 1.0 - cfg.beta2]).reshape(2, 1, 1)
        self._lr, self._eps = cfg.learning_rate, cfg.eps
        dims = arch.layer_dims()[1:]
        cap = params.shape[0] * rows
        self._act_mem = [np.empty(cap * d) for d in dims]
        self._delta_mem = [np.empty(cap * d) for d in dims]
        self._tmp_mem = np.empty(cap * max(dims))
        self._blocks: dict[tuple[int, int], _Block] = {}
        self._buffers: dict[tuple[int, int], _Buffers] = {}

    def block(self, lo: int, hi: int) -> _Block:
        """Parameters and optimizer state of models lo..hi-1 (cached)."""
        block = self._blocks.get((lo, hi))
        if block is None:
            weights = [w[lo:hi] for w in self._weights]
            block = _Block(
                self.params[lo:hi],
                self.grad[lo:hi],
                self.moments[:, lo:hi],
                self._scratch[:, lo:hi],
                weights,
                [w.transpose(0, 2, 1) for w in weights],
                [b[lo:hi] for b in self._biases],
                [g[lo:hi] for g in self._g_w],
                [g[lo:hi] for g in self._g_b],
            )
            self._blocks[(lo, hi)] = block
        return block

    def buffers(self, r: int, b: int) -> _Buffers:
        """Activation, error and scratch views for r models of b rows (cached)."""
        bufs = self._buffers.get((r, b))
        if bufs is None:
            dims = self.arch.layer_dims()[1:]
            acts = [mem[: r * b * d].reshape(r, b, d) for mem, d in zip(self._act_mem, dims)]
            bufs = _Buffers(
                acts,
                [a.transpose(0, 2, 1) for a in acts],
                [mem[: r * b * d].reshape(r, b, d) for mem, d in zip(self._delta_mem, dims)],
                [self._tmp_mem[: r * b * d].reshape(r, b, d) for d in dims],
            )
            self._buffers[(r, b)] = bufs
        return bufs

    def forward(self, lo: int, hi: int, x: np.ndarray) -> list[np.ndarray]:
        """Layer outputs of models lo..hi-1 on x (hi - lo, b, d), the last one linear."""
        block = self.block(lo, hi)
        acts = self.buffers(hi - lo, x.shape[1]).acts
        kind = self.arch.activation
        last = len(acts) - 1
        a = x
        for k, (w, b, z) in enumerate(zip(block.weights, block.biases, acts)):
            np.matmul(a, w, out=z)
            z += b
            if k < last:
                if kind == "tanh":
                    np.tanh(z, out=z)
                elif kind == "relu":
                    np.maximum(z, 0.0, out=z)
                else:  # sigmoid: 1 / (1 + exp(-z))
                    np.negative(z, out=z)
                    np.exp(z, out=z)
                    z += 1.0
                    np.divide(1.0, z, out=z)
            a = z
        return acts

    def backward(self, lo: int, hi: int, x: np.ndarray, acts, err: np.ndarray) -> None:
        """Gradient rows of models lo..hi-1 from forward's activations, which
        it overwrites; writes each model's raw error out - x into err (hi - lo, b, d)."""
        block = self.block(lo, hi)
        r, b, d = x.shape
        bufs = self.buffers(r, b)
        deltas = bufs.deltas
        kind = self.arch.activation
        np.subtract(acts[-1], x, out=err)
        np.multiply(err, 2.0 / (b * d), out=deltas[-1])
        for k in range(len(acts) - 1, 0, -1):
            delta, a, prev = deltas[k], acts[k - 1], deltas[k - 1]
            np.matmul(bufs.acts_t[k - 1], delta, out=block.g_w[k])
            np.add.reduce(delta, axis=1, out=block.g_b[k], keepdims=True)
            np.matmul(delta, block.weights_t[k], out=prev)
            # derivative expressed via the activation output a, in place
            if kind == "tanh":  # 1 - a*a
                np.multiply(a, a, out=a)
                np.subtract(1.0, a, out=a)
            elif kind == "relu":
                np.greater(a, 0.0, out=a)
            else:  # sigmoid: a * (1 - a)
                np.subtract(1.0, a, out=bufs.tmps[k - 1])
                np.multiply(a, bufs.tmps[k - 1], out=a)
            prev *= a
        np.matmul(x.transpose(0, 2, 1), deltas[0], out=block.g_w[0])
        np.add.reduce(deltas[0], axis=1, out=block.g_b[0], keepdims=True)

    def adam(self, lo: int, hi: int, corrections: np.ndarray) -> None:
        """One Adam update of models lo..hi-1 from their gradient rows.

        corrections (2, hi - lo, 1) holds each model's 1 - beta1**t and
        1 - beta2**t.
        """
        params, grad, moments, scratch = self.block(lo, hi)[:4]
        m_hat, v_hat = scratch
        moments *= self._decay
        np.multiply(grad, self._gain, out=scratch)
        v_hat *= grad  # (1 - beta2) * grad * grad
        moments += scratch
        np.divide(moments, corrections, out=scratch)
        np.sqrt(v_hat, out=v_hat)
        v_hat += self._eps
        m_hat *= self._lr
        m_hat /= v_hat
        params -= m_hat

    def step(self, lo: int, hi: int, x: np.ndarray, corrections, err: np.ndarray) -> None:
        """Forward, backward and Adam for models lo..hi-1 on x (hi - lo, b, d)."""
        self.backward(lo, hi, x, self.forward(lo, hi, x), err)
        self.adam(lo, hi, corrections)


@dataclass
class TrainConfig:
    epochs: int = 80
    batch_size: int = 16
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    shuffle_seed: int = 0

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
) -> list[float] | list[list[float]]:
    """Mini-batch Adam training; returns mean training loss per epoch.

    Pass a persistent AdamState and shuffle generator to continue a
    previous run (federated clients do); otherwise both start fresh from
    cfg. The last partial batch is kept.

    `model` may be a list of models of one architecture. `data`,
    `optimizer` and `shuffle_rng` are then lists of the same length (the
    last two may be None), all models train in lockstep, and one loss
    trace per model comes back in input order. Every model's weights,
    optimizer state and trace equal those of training it alone, bit for
    bit.
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
    if cfg.epochs == 0:
        traces = [[] for _ in models]
    else:
        opts = [opt if opt is not None else AdamState(n_params) for opt in opts]
        rngs = [g if g is not None else np.random.default_rng(cfg.shuffle_seed) for g in rngs]
        traces = _train_lockstep(models, xs, cfg, opts, rngs)
    return traces if many else traces[0]


def _per_model(arg, count: int, many: bool, name: str) -> list:
    if not many:
        return [arg]
    if arg is None:
        return [None] * count
    if not isinstance(arg, (list, tuple)) or len(arg) != count:
        raise ValueError(f"{name} must be a list with one entry per model ({count})")
    return list(arg)


def _train_lockstep(models, xs, cfg: TrainConfig, opts, rngs) -> list[list[float]]:
    """Train validated models together; returns their traces in input order.

    Models are stacked in descending order of full batches (stable), so
    at full-batch step j the models still active are a prefix [:r]. Each
    model's partial last batch runs as its own one-model step at the end
    of the epoch, which keeps every model's step order.

    The stack is `_workspace`, kept across calls with the same arch, model
    count, batch size and Adam settings (learning rate, betas, eps); the
    data-sized batch and error table, corrections and step plan are per call.
    """
    size, dim = cfg.batch_size, models[0].arch.input_dim
    order = sorted(range(len(models)), key=lambda i: -(len(xs[i]) // size))
    xs = [xs[i] for i in order]
    full = [len(x) // size for x in xs]
    steps = [-(-len(x) // size) for x in xs]
    active = np.count_nonzero(np.arange(full[0])[:, None] < np.array(full), axis=1).tolist()
    # the Adam settings by their bits: 0.0 == -0.0, yet the two step a zero differently
    adam = struct.pack("4d", cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)
    key = (models[0].arch, len(models), size, adam)
    stack = _workspace.pop(key, None)  # held out while in use: a concurrent call builds its own
    if stack is None:
        _workspace.clear()  # drop the old stack first: never two alive at once
        stack = _Stack(models[0].arch, np.empty((len(models), models[0].n_params)), size, cfg)
    # written in place, as the cached views point into them; every step overwrites the
    # gradient, activation, error and Adam scratch rows it reads, so no earlier call leaks in
    np.stack([models[i]._flat for i in order], out=stack.params)
    stack.moments[:] = [[opts[i].m for i in order], [opts[i].v for i in order]]
    t0 = [opts[i].t for i in order]

    # one row per (step, model): batch j sits in row j + 1, and its step writes its
    # raw error out - x into row j, which held batch j - 1; a model's tail writes
    # into row full[p]. A slot no batch or error reaches stays 0 and the others are
    # rewritten every epoch, so squaring them all keeps every value finite.
    errors = np.zeros((full[0] + 1, len(xs), size * dim))
    batches = errors[1:].reshape(full[0], len(xs), size, dim)
    # per-step 1 - beta1**t and 1 - beta2**t, Python float powers as a
    # lone model's Adam step takes them (numpy power can differ in the last bit)
    corrections = np.ones((full[0] + 1, 2, len(xs), 1))
    full_steps = [
        (r, batches[j, :r], corrections[j, :, :r], errors[j, :r].reshape(r, size, dim))
        for j, r in enumerate(active)
    ]
    traces = [[] for _ in xs]
    for epoch in range(cfg.epochs):
        tails = []
        for p, x in enumerate(xs):
            shuffled = x[rngs[order[p]].permutation(len(x))]
            cut = full[p] * size
            batches[: full[p], p] = shuffled[:cut].reshape(full[p], size, dim)
            tails.append(shuffled[cut:].copy())  # a view would keep all of shuffled alive
            ts = range(t0[p] + epoch * steps[p] + 1, t0[p] + (epoch + 1) * steps[p] + 1)
            corrections[: steps[p], 0, p, 0] = [1.0 - cfg.beta1**t for t in ts]
            corrections[: steps[p], 1, p, 0] = [1.0 - cfg.beta2**t for t in ts]
        for r, x, corr, err in full_steps:
            stack.step(0, r, x, corr, err)
        for p, tail in enumerate(tails):
            if len(tail):
                j = full[p]
                err = errors[j, p, : tail.size].reshape(1, len(tail), dim)
                stack.step(p, p + 1, tail[None], corrections[j, :, p : p + 1], err)
        # np.mean of one model's batch: the sum of its squared errors / size
        np.square(errors, out=errors)
        losses = np.add.reduce(errors, axis=2)
        losses /= size * dim
        for p, tail in enumerate(tails):  # after the bulk reduce, which spans the tail rows
            if len(tail):
                losses[full[p], p] = np.add.reduce(errors[full[p], p, : tail.size]) / tail.size
        table = losses.tolist()
        for p, (x, tail) in enumerate(zip(xs, tails)):
            # batch losses summed in step order, as a lone model's epoch does
            sq_sum = 0.0
            for j in range(full[p]):
                sq_sum += table[j][p] * (size * dim)
            if len(tail):
                sq_sum += table[full[p]][p] * tail.size
            traces[p].append(sq_sum / float(x.size))

    out = [None] * len(xs)
    for p, i in enumerate(order):
        models[i]._flat[:] = stack.params[p]
        opts[i].m[:] = stack.moments[0, p]
        opts[i].v[:] = stack.moments[1, p]
        opts[i].t = t0[p] + cfg.epochs * steps[p]
        out[i] = traces[p]
    _workspace.clear()
    _workspace[key] = stack
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
    model = AutoencoderModel(arch)
    model._flat[:] = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return model
