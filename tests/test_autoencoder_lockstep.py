"""Training R models in one `train` call equals training each model alone.

The lockstep trainer stacks the models and steps them together; every
model's loss trace, weights, Adam state and shuffle stream must come out
bit for bit as if it had been trained by its own call.
"""

import copy
import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora import autoencoder as ae
from fedlora import federated as fl
from fedlora.autoencoder import (
    AdamState,
    ArchSpec,
    TrainConfig,
    build_autoencoder,
    forward,
    loss_and_gradient,
    mse,
    set_weights,
    train,
)
from fedlora.frame import FeatureFrame

ARCHS = (
    ArchSpec(hidden_sizes=(32,), activation="tanh"),
    ArchSpec(hidden_sizes=(4,), activation="sigmoid"),
    ArchSpec(hidden_sizes=(16, 8), activation="relu"),
    ArchSpec(hidden_sizes=(3, 1), activation="tanh"),
)


def _setup(arch, sizes, warm, seed, batch):
    """Models, data, optimizers and generators; model i first trains `warm[i]` epochs alone."""
    rng = np.random.default_rng(seed)
    models, data, opts, gens = [], [], [], []
    for i, (n, w) in enumerate(zip(sizes, warm)):
        models.append(build_autoencoder(arch, seed=seed + i))
        data.append(rng.normal(size=(n, 5)))
        opts.append(AdamState(models[-1].n_params))
        gens.append(np.random.default_rng([seed, i]))
        if w:
            cfg = TrainConfig(epochs=w, batch_size=batch)
            train(models[-1], data[-1], cfg, opts[-1], gens[-1])
    return models, data, opts, gens


def _check_lockstep(arch, sizes, epochs, batch, warm, seed):
    cfg = TrainConfig(epochs=epochs, batch_size=batch)
    models, data, opts, gens = _setup(arch, sizes, warm, seed, batch)
    alone = copy.deepcopy((models, opts, gens))
    traces = train(models, data, cfg, opts, gens)
    assert len(traces) == len(models)
    for i, (model, opt, gen) in enumerate(zip(*alone)):
        assert traces[i] == train(model, data[i], cfg, opt, gen)
        assert np.array_equal(models[i]._flat, model._flat)
        assert np.array_equal(opts[i].m, opt.m)
        assert np.array_equal(opts[i].v, opt.v)
        assert opts[i].t == opt.t
        assert gens[i].bit_generator.state == gen.bit_generator.state


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: f"{a.activation}{a.hidden_sizes}")
@pytest.mark.parametrize("epochs", [0, 1, 2, 3])
def test_ragged_unsorted_models_match_alone(arch, epochs):
    # below, equal to and a multiple of the batch size, ties in full-batch count, unsorted
    sizes = (11, 48, 3, 45, 16, 32, 40)
    _check_lockstep(arch, sizes, epochs, 16, (0, 1, 2, 0, 1, 0, 3), seed=epochs)


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: f"{a.activation}{a.hidden_sizes}")
@pytest.mark.parametrize("n", [16, 7], ids=["one-full-batch", "tail-only"])
@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
def test_first_epoch_loss_is_the_batch_mse(arch, n, stacked):
    # a check apart from the lockstep trainer: a reduction bug that training
    # alone and stacked share would pass the equality tests above
    rng = np.random.default_rng(n)
    model = build_autoencoder(arch, seed=3)
    x = rng.normal(size=(n, 5))
    batch = x[np.random.default_rng(0).permutation(n)]  # the first epoch's shuffle
    loss, _ = loss_and_gradient(model, batch)
    assert loss == mse(forward(model, batch), batch)
    cfg = TrainConfig(epochs=1, batch_size=16)
    if stacked:
        data = [rng.normal(size=(40, 5)), x, rng.normal(size=(21, 5))]
        models = [build_autoencoder(arch, seed=4), model, build_autoencoder(arch, seed=5)]
        trace = train(models, data, cfg)[1]
    else:
        trace = train(model, x, cfg)
    assert trace[0] == loss


def test_default_optimizer_and_stream_match_alone():
    cfg = TrainConfig(epochs=2, batch_size=8, shuffle_seed=5)
    rng = np.random.default_rng(1)
    data = [rng.normal(size=(n, 5)) for n in (7, 30, 24)]
    stacked = [build_autoencoder(ArchSpec(), seed=i) for i in range(3)]
    alone = copy.deepcopy(stacked)
    traces = train(stacked, data, cfg)
    for model, single, x, trace in zip(stacked, alone, data, traces):
        assert trace == train(single, x, cfg)
        assert np.array_equal(model._flat, single._flat)


@settings(max_examples=60, deadline=None)
@given(
    arch=st.sampled_from(ARCHS),
    sizes=st.lists(st.integers(1, 70), min_size=1, max_size=5),
    epochs=st.integers(0, 3),
    batch=st.integers(1, 24),
    warm=st.lists(st.integers(0, 2), min_size=5, max_size=5),
    seed=st.integers(0, 2**20),
)
def test_lockstep_property(arch, sizes, epochs, batch, warm, seed):
    _check_lockstep(arch, sizes, epochs, batch, warm[: len(sizes)], seed)


# The lockstep trainer keeps its stack between calls. A previous call with the
# same key (arch, model count, batch size, Adam settings) reuses it, any other
# call replaces it; either way the next call must come out as from a fresh stack.
_TARGET_CFG = TrainConfig(epochs=2, batch_size=8)
_PREVIOUS = {
    "same-key": {},
    # leaves inf in the Adam moments and scratch the workspace keeps
    "same-key-overflowing": {"scale": 1e300},
    "two-models": {"count": 2},
    "five-models": {"count": 5},
    "batch-4": {"batch_size": 4},
    "batch-16": {"batch_size": 16},
    "learning-rate": {"learning_rate": 0.01},
    "beta1": {"beta1": 0.8},
    "beta2": {"beta2": 0.99},
    "eps": {"eps": 1e-4},
    "hidden-sizes": {"arch": ArchSpec(hidden_sizes=(4, 2))},
    "activation": {"arch": ArchSpec(activation="relu")},
}


def _previous_call(arch=ARCHS[0], count=3, scale=1.0, **cfg):
    """Train other models on other data from a warm, random optimizer state."""
    rng = np.random.default_rng(99)
    models = [build_autoencoder(arch, seed=50 + i) for i in range(count)]
    opts = [AdamState(model.n_params) for model in models]
    for opt in opts:
        opt.m[:] = rng.normal(size=opt.m.shape)
        opt.v[:] = rng.random(opt.v.shape)
        opt.t = 17
    data = [scale * rng.normal(size=(n, 5)) for n in rng.integers(1, 90, size=count)]
    with np.errstate(all="ignore"):
        train(models, data, dataclasses.replace(_TARGET_CFG, **cfg), opts)


def _target_call(previous=None):
    """Three warm-started models on ragged data, trained right after `previous`.

    Returns the traces, each model's weights and Adam state, and whether
    the call kept the stack the call before it left.
    """
    models, data, opts, gens = _setup(ARCHS[0], (40, 23, 7), (1, 0, 2), seed=11, batch=8)
    if previous is not None:
        _previous_call(**previous)
    (left,) = ae._workspace.values()
    traces = train(models, data, _TARGET_CFG, opts, gens)
    (stack,) = ae._workspace.values()
    return traces, [(m._flat, o.m, o.v, o.t) for m, o in zip(models, opts)], stack is left


@pytest.mark.parametrize("previous", list(_PREVIOUS.values()), ids=list(_PREVIOUS))
def test_train_does_not_depend_on_the_previous_call(previous):
    # _setup's one-model calls leave a stack of another key: this call builds its own
    traces, state, reused = _target_call()
    assert not reused
    got_traces, got_state, reused = _target_call(previous)
    assert reused == (set(previous) <= {"scale"})  # each case is the hit or miss it names
    assert got_traces == traces
    for (flat, m, v, t), (got_flat, got_m, got_v, got_t) in zip(state, got_state):
        assert np.array_equal(got_flat, flat)
        assert np.array_equal(got_m, m)
        assert np.array_equal(got_v, v)
        assert got_t == t


def test_signed_zero_learning_rates_do_not_share_a_stack():
    # 0.0 == -0.0, yet one Adam step with each leaves a -0.0 weight with opposite signs
    def signs(lr):
        model = build_autoencoder(ArchSpec(), seed=0)
        set_weights(model, np.full(model.n_params, -0.0))
        train(model, np.ones((4, 5)), TrainConfig(epochs=1, batch_size=4, learning_rate=lr))
        return np.signbit(model._flat)

    assert not (signs(0.0) == signs(-0.0)).any()


def test_concurrent_calls_of_one_key_match_serial_calls():
    # every call of one key would step the same stack if the workspace lent it out
    cfg = TrainConfig(epochs=3, batch_size=4)
    rng = np.random.default_rng(5)
    data = [[rng.normal(size=(n, 5)) for n in (30, 17)] for _ in range(6)]
    serial = [train([build_autoencoder(ArchSpec(), seed=i) for i in (0, 1)], d, cfg) for d in data]
    results = [None] * len(data)

    def worker(k):
        results[k] = train([build_autoencoder(ArchSpec(), seed=i) for i in (0, 1)], data[k], cfg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(data))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial


def test_run_schedule_builds_one_training_stack(monkeypatch):
    built = []
    init = ae._Stack.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    # a call of another key first, so the schedule cannot inherit a stack from an earlier test
    train(build_autoencoder(ArchSpec(), seed=0), np.zeros((3, 5)), TrainConfig(epochs=1))
    monkeypatch.setattr(ae._Stack, "__init__", counting_init)
    rng = np.random.default_rng(3)
    frames = {
        m: FeatureFrame(rng.normal(size=(n, 5)), np.array([m] * n))
        for m, n in (("Manitou", 30), ("AtlasD7", 21), ("JawCrusher", 9))
    }
    clients = fl.make_clients(frames, ArchSpec(), seed=1)
    global_model = fl.init_global(ArchSpec(), seed=2)
    fl.run_schedule(fl.FLSchedule(1, 3, 3), clients, global_model, TrainConfig(batch_size=8))
    assert global_model.round_index == 3
    assert len(built) == 1


def _kept_bytes(stack) -> int:
    """Bytes of every array a stack keeps alive, each owning array counted once."""
    owners = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            while obj.base is not None:
                obj = obj.base
            owners[id(obj)] = obj.nbytes
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                visit(item)

    visit(vars(stack))
    return sum(owners.values())


def test_workspace_holds_nothing_sized_by_the_data(monkeypatch):
    cfg = TrainConfig(epochs=1, batch_size=16)
    rng = np.random.default_rng(4)
    kept = []
    # a fresh stack on 100 rows a model, the same stack on 10,000, a fresh one on 10,000
    for n, fresh in ((100, True), (10_000, False), (10_000, True)):
        if fresh:
            monkeypatch.setattr(ae, "_workspace", {})
        models = [build_autoencoder(ArchSpec(), seed=i) for i in range(4)]
        train(models, [rng.normal(size=(n + 3 * i, 5)) for i in range(4)], cfg)
        (stack,) = ae._workspace.values()
        kept.append(_kept_bytes(stack))
    assert kept[0] == kept[1] == kept[2]


def _ragged_call(rng, epochs=1):
    """Three models of 40, 23 and 7 rows at batch 8: full steps on 2 then 1 models, two tails."""
    models = [build_autoencoder(ArchSpec(), seed=i) for i in range(3)]
    data = [rng.normal(size=(n, 5)) for n in (40, 23, 7)]
    return train(models, data, TrainConfig(epochs=epochs, batch_size=8))


def test_train_assembles_its_epoch_program_once(monkeypatch):
    steps_per_program = []
    program = ae._Stack.program

    def counting_program(self, steps):
        steps = list(steps)
        steps_per_program.append(len(steps))
        return program(self, steps)

    monkeypatch.setattr(ae._Stack, "program", counting_program)
    traces = _ragged_call(np.random.default_rng(6), epochs=3)
    assert [len(trace) for trace in traces] == [3, 3, 3]
    assert steps_per_program == [5 + 2]  # one program: five full steps and two tails


def test_second_call_of_one_key_builds_no_step_segment(monkeypatch):
    emitted = []
    emit = ae._Stack.emit

    def counting_emit(self, lo, hi, b, *operands):
        emitted.append((lo, hi, b))
        return emit(self, lo, hi, b, *operands)

    monkeypatch.setattr(ae, "_workspace", {})
    monkeypatch.setattr(ae._Stack, "emit", counting_emit)
    rng = np.random.default_rng(7)
    _ragged_call(rng)
    assert sorted(emitted) == [(0, 1, 8), (0, 2, 8), (1, 2, 7), (2, 3, 7)]
    emitted.clear()
    _ragged_call(rng)  # the same key and data lengths, other data
    assert emitted == []
