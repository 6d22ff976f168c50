"""Training R models in one `train` call equals training each model alone.

The lockstep trainer stacks the models and steps them together; every
model's loss trace, weights, Adam state and shuffle stream must come out
bit for bit as if it had been trained by its own call.

`python tests/test_autoencoder_lockstep.py [ROWS ...]` measures what
assembling one call's epoch program costs. ROWS is one call's per-model
row counts, comma-separated, at batch 16. For each call it prints the
program's steps and numpy calls, the best of five assembly times and
the memory that tracemalloc traces while the program is assembled. By
default it measures perfbench's `central` and `federated` calls (seed
7) and the two calls of the study on its default config.
"""

import copy
import sys
import threading
import time
import tracemalloc
from functools import partial
from unittest import mock

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
            train(models[-1:], data[-1:], cfg, opts[-1:], gens[-1:])
    return models, data, opts, gens


def _check_lockstep(arch, sizes, epochs, batch, warm, seed):
    cfg = TrainConfig(epochs=epochs, batch_size=batch)
    models, data, opts, gens = _setup(arch, sizes, warm, seed, batch)
    alone = copy.deepcopy((models, opts, gens))
    traces = train(models, data, cfg, opts, gens)
    assert len(traces) == len(models)
    for i, (model, opt, gen) in enumerate(zip(*alone)):
        assert traces[i] == train([model], [data[i]], cfg, [opt], [gen])[0]
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
        [trace] = train([model], [x], cfg)
    assert trace[0] == loss


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: f"{a.activation}{a.hidden_sizes}")
def test_one_row_tails_match_alone(arch):
    # 17 and 33 rows at batch 16 leave one-row tails, each padded to a full batch
    _check_lockstep(arch, (17, 33, 16, 7), 2, 16, (1, 0, 2, 0), seed=17)


@pytest.mark.parametrize("batch", [64, 200])
def test_large_batches_match_alone(batch):
    _check_lockstep(ArchSpec(), (450, 64, 301, 199, 12), 2, batch, (0, 1, 0, 2, 1), seed=batch)


def test_equal_tails_of_two_groups_match_alone():
    # at batch 16: 294 and 292 rows take 18 full batches with tails of 6 and 4, and 198
    # rows 12 with a tail of 6
    _check_lockstep(ArchSpec(), (294, 292, 198), 2, 16, (0, 1, 2), seed=294)


@pytest.mark.parametrize("kind", ae.ACTIVATIONS)
@pytest.mark.parametrize("hidden", [(1,), (4,), (32,), (16, 8), (33, 17), (8, 3, 2)], ids=str)
def test_forward_equals_the_training_stacks_forward(kind, hidden):
    arch = ArchSpec(hidden_sizes=hidden, activation=kind)
    model = build_autoencoder(arch, seed=len(hidden))
    rng = np.random.default_rng(sum(hidden))
    for n in (1, 2, 3, 16, 17, 215, 1650):
        x = rng.normal(size=(n, 5)) * 2.0
        stack = ae._Stack(arch, model._flat[None], n)
        batch = np.hstack([x, np.ones((n, 1))])[None]
        expected = ae._run(stack.emit(0, 1, n, batch, None, None)[0])[0]
        assert forward(model, x).tobytes() == expected.tobytes(), n


def test_forward_allocates_only_its_layers():
    # 16,961 rows, a full-size evaluation frame: one 16,961 x 33 hidden buffer (4.5 MB)
    # and the output, not a training stack's activation, pre-activation, error and
    # scratch buffers (19 MB)
    model = build_autoencoder(ArchSpec(), seed=0)
    x = np.random.default_rng(0).normal(size=(16961, 5))
    tracemalloc.start()
    try:
        forward(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_default_optimizer_and_stream_match_alone():
    cfg = TrainConfig(epochs=2, batch_size=8)
    rng = np.random.default_rng(1)
    data = [rng.normal(size=(n, 5)) for n in (7, 30, 24)]
    stacked = [build_autoencoder(ArchSpec(), seed=i) for i in range(3)]
    alone = copy.deepcopy(stacked)
    traces = train(stacked, data, cfg)
    for model, single, x, trace in zip(stacked, alone, data, traces):
        assert [trace] == train([single], [x], cfg)
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


def test_signed_zero_learning_rates_do_not_share_a_stack():
    # 0.0 == -0.0, yet one Adam step with each leaves a -0.0 weight with opposite signs
    def signs(lr):
        model = build_autoencoder(ArchSpec(), seed=0)
        set_weights(model, np.full(model.n_params, -0.0))
        train([model], [np.ones((4, 5))], TrainConfig(epochs=1, batch_size=4, learning_rate=lr))
        return np.signbit(model._flat)

    assert not (signs(0.0) == signs(-0.0)).any()


def test_concurrent_calls_of_one_key_match_serial_calls():
    # concurrent calls of one arch, model count and batch size share no training state
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


def _counting(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that appends its arguments to calls."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_run_schedule_builds_one_training_stack(monkeypatch):
    trains, built, programs = [], [], []
    _counting(monkeypatch, ae, "train", trains)
    _counting(monkeypatch, ae._Stack, "__init__", built)
    _counting(monkeypatch, ae._Stack, "program", programs)
    rng = np.random.default_rng(3)
    frames = {
        m: FeatureFrame(rng.normal(size=(n, 5)), np.array([m] * n))
        for m, n in (("Manitou", 30), ("AtlasD7", 21), ("JawCrusher", 9))
    }
    clients = fl.make_clients(frames, ArchSpec(), seed=1)
    global_model = build_autoencoder(ArchSpec(), seed=2)
    [history] = fl.run_schedule(fl.FLSchedule(1, 3, 3), [clients], [global_model], TrainConfig(batch_size=8))
    assert [row["round"] for row in history] == [r for r in (1, 2, 3) for _ in clients]
    # the three rounds are one train call of three epochs: one stack, one epoch program
    assert len(trains) == len(built) == len(programs) == 1
    assert trains[0][2].epochs == 3


def _ragged_call(rng, epochs=1):
    """Three models of 40, 23 and 7 rows at batch 8: full steps on 2 then 1 models, two tails."""
    models = [build_autoencoder(ArchSpec(), seed=i) for i in range(3)]
    data = [rng.normal(size=(n, 5)) for n in (40, 23, 7)]
    return train(models, data, TrainConfig(epochs=epochs, batch_size=8))


def test_train_assembles_its_epoch_program_once(monkeypatch):
    programs = []  # (steps, numpy calls) per program assembled
    program = ae._Stack.program

    def counting_program(self, steps):
        steps = list(steps)
        calls = program(self, steps)
        # each step's error scale (the multiply of its (r, 8, 5) error), and its shape
        scales.extend(args[1].shape for f, args in calls if f is np.multiply and args[0].shape[1:] == (8, 5))
        programs.append((len(steps), len(calls)))
        return calls

    scales = []
    monkeypatch.setattr(ae._Stack, "program", counting_program)
    traces = _ragged_call(np.random.default_rng(6), epochs=3)
    assert [len(trace) for trace in traces] == [3, 3, 3]
    # one program of five steps of 22 calls (3 forward, 8 backward, 11 Adam): on 3, 2,
    # 2, 1 and 1 models, the first and third with a 7-row tail padded to 8 rows, whose
    # scale is an operand of the error's shape; the others' is 0-d
    assert programs == [(5, 5 * 22)]
    assert scales == [(3, 8, 5), (), (2, 8, 5), (), ()]


def test_overflowing_losses_stay_inf_not_nan():
    # squared errors past float64's range make a loss inf. The slots a model's steps
    # do not write then hold inf too (its squared batch rows), and they must stay
    # out of its loss: inf * 0 would be nan.
    rng = np.random.default_rng(8)
    sizes_scales = ((40, 1.0), (39, 1e160), (23, 1.0), (16, 1e200), (5, 1.0))
    data = [rng.normal(size=(n, 5)) * scale for n, scale in sizes_scales]
    cfg = TrainConfig(epochs=2, batch_size=16)
    models = [build_autoencoder(ArchSpec(), seed=i) for i in range(len(data))]
    with np.errstate(over="ignore"):
        alone = [train([model], [x], cfg)[0] for model, x in zip(copy.deepcopy(models), data)]
        stacked = train(models, data, cfg)
    for (_, scale), lone, trace in zip(sizes_scales, alone, stacked):
        assert trace == lone
        assert np.isinf(trace).all() if scale > 1.0 else np.isfinite(trace).all()


@pytest.mark.parametrize("kind", ae.ACTIVATIONS)
@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("b", [1, 7, 16])
def test_step_calls_take_operands_of_their_output_shape_or_0d(kind, r, b):
    # numpy's cheapest path: same-shape or 0-d array operands skip its broadcasting
    # iterator and its Python-scalar promotion. Models 1..r of r + 1 cover a slice
    arch = ArchSpec(hidden_sizes=(16, 8), activation=kind)
    params = np.stack([build_autoencoder(arch, seed=i)._flat for i in range(r + 1)])
    stack = ae._Stack(arch, params, b, learning_rate=0.001)
    corr = np.ones((2, r, 1))
    operands = (np.ones((r, b, 6)), np.empty((r, b, 5)), corr)
    for part in stack.emit(1, r + 1, b, *operands):
        assert part
        for f, args in part:
            assert f is not np.copyto
            if f is np.matmul:
                continue
            if isinstance(f, partial):  # np.maximum takes its out by keyword
                f, inputs, out = f.func, args, f.keywords["out"]
            else:
                inputs, out = args[: f.nin], args[f.nin]
            assert isinstance(f, np.ufunc) and len(inputs) == f.nin
            assert all(isinstance(a, np.ndarray) for a in (*inputs, out)), f.__name__
            for a in inputs:
                if f is np.divide and a is corr:  # Adam's bias corrections, (2, r, 1)
                    continue
                assert a.ndim == 0 or a.shape == out.shape, (f.__name__, a.shape, out.shape)


def test_activations_map_pinned_infinity_to_exactly_one():
    # the pre-activation's +inf column becomes the ones column: IEEE 754 fixes
    # tanh(+inf) = 1 and exp(-inf) = +0. The lengths cover numpy's SIMD body and tail
    one = np.array(1.0)
    with np.errstate(all="raise"):
        for n in [*range(1, 65), 1056]:
            assert np.array_equal(np.tanh(np.full(n, np.inf)), np.ones(n)), n
            z = np.negative(np.full(n, np.inf))
            np.exp(z, z)
            np.add(z, one, z)
            np.divide(one, z, z)
            assert np.array_equal(z, np.ones(n)), n


@pytest.mark.parametrize("kind", ae.ACTIVATIONS)
def test_hidden_ones_columns_are_exactly_one_after_each_forward(monkeypatch, kind):
    emit, checked = ae._Stack.emit, []

    def checking_emit(self, lo, hi, b, *operands):
        fwd, bwd, adam = emit(self, lo, hi, b, *operands)

        def check():
            for mem, w in zip(self._act_mem[:-1], self._widths):
                assert (mem[: (hi - lo) * b * w].reshape(-1, w)[:, -1] == 1.0).all()
            checked.append((hi - lo, b))

        return fwd + [(check, ())], bwd, adam

    monkeypatch.setattr(ae._Stack, "emit", checking_emit)
    # at batch 8: 40, 23, 9 and 1 rows take 5, 3, 2 and 1 steps, tails padded to 8 rows
    rng = np.random.default_rng(9)
    arch = ArchSpec(hidden_sizes=(16, 8), activation=kind)
    models = [build_autoencoder(arch, seed=i) for i in range(4)]
    data = [rng.normal(size=(n, 5)) for n in (40, 23, 9, 1)]
    with np.errstate(all="raise"):
        train(models, data, TrainConfig(epochs=2, batch_size=8))
    assert sorted(set(checked)) == [(1, 8), (2, 8), (3, 8), (4, 8)]


# per-model training rows of one `train` call: perfbench's `central` and `federated`
# calls on seed 7, and the central and federated calls of `fedlora run` (default config)
ASSEMBLED_CALLS = {
    "perfbench central": (823, 817),
    "perfbench federated": (292, 11, 198, 322, 294, 11, 187, 325),
    "study central": (16961, 16940, 16931, 16948, 16890, 16924, 16941, 16944, 16916, 16828, 16912, 16907, 16881),
    "study federated": (
        5961, 239, 3936, 6825, 5933, 240, 3946, 6821, 5925, 240, 3934, 6832, 5928, 235, 3956, 6829, 5911, 240,
        3923, 6816, 5930, 241, 3926, 6827, 5918, 242, 3940, 6841, 5965, 242, 3942, 6795, 5914, 238, 3934, 6830,
        5880, 239, 3916, 6793, 5921, 242, 3929, 6820, 5916, 240, 3945, 6806, 5922, 240, 3926, 6793,
    ),
}


def assembly_cost(rows, batch=16, repeats=5) -> tuple[int, int, float, float]:
    """One `train` call's epoch program on models of these row counts: its steps and numpy calls.

    Also the best of `repeats` times to assemble it, in ms, and the MB
    that tracemalloc traces while it is assembled.
    """
    program, costs = ae._Stack.program, []

    def measured(self, steps):
        steps = list(steps)
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        base, start = tracemalloc.get_traced_memory()[0], time.perf_counter()
        calls = program(self, steps)
        seconds = time.perf_counter() - start
        costs.append((len(steps), len(calls), seconds, tracemalloc.get_traced_memory()[1] - base))
        return calls

    models = [build_autoencoder(ArchSpec(), seed=i) for i in range(len(rows))]
    data = [np.zeros((n, 5)) for n in rows]
    cfg = TrainConfig(epochs=0, batch_size=batch)  # the program is assembled, never run
    with mock.patch.object(ae._Stack, "program", measured):
        for _ in range(repeats):
            train(models, data, cfg)
        tracemalloc.start()
        try:
            train(models, data, cfg)
        finally:
            tracemalloc.stop()
    steps, calls, _, traced = costs[-1]
    return steps, calls, min(cost[2] for cost in costs[:-1]) * 1e3, traced / 1e6


if __name__ == "__main__":
    calls = {arg: tuple(map(int, arg.split(","))) for arg in sys.argv[1:]} or ASSEMBLED_CALLS
    for name, rows in calls.items():
        steps, count, ms, mb = assembly_cost(rows)
        print(f"{name}: {len(rows)} models, {steps} steps, {count} calls, {ms:.2f} ms, {mb:.2f} MB")
