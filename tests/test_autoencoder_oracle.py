"""The lockstep trainer against a plain reference trainer (the oracle).

`reference_train` trains one model the way the paper describes it, with
nothing of `train`'s machinery: an unfolded `a @ W + b` per layer, an
explicit backward pass, and Adam as Kingma & Ba (ICLR 2015) write it,
with Python float powers for the bias corrections. Each epoch shuffles
with the model's generator and takes mini-batches in order, the last
one partial; the epoch loss weights each batch's mean squared error by
its rows.

The two trainers sum in different orders, so they agree to a tolerance,
not in bits: every parameter to `PARAM_RTOL` of the vector's largest
reference entry, and every epoch loss to `LOSS_RTOL` of its reference
value. Each bound is ten times the worst case that a first, unkept
measurement found over these cases and 8,000 more drawn alike: 7.5e-14
and 1.5e-15, before and after tails became masked batches.

`python tests/test_autoencoder_oracle.py N` measures it again: it prints
the worst relative parameter and loss differences over the fixture, the
one-row and the federated cases and N cases drawn as the hypothesis test
draws them. With N = 8,000 (8,031 cases) it printed 5.4e-16 and 1.1e-15,
both before and after Adam's corrections came from numpy powers and each
epoch loss from one sum of squared errors per model.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora import autoencoder as ae
from fedlora import federated as fl
from fedlora.frame import FeatureFrame

PARAM_RTOL = 7.5e-13  # measured worst case 7.5e-14 of the largest parameter
LOSS_RTOL = 1.5e-14  # measured worst case 1.5e-15 of the loss

FIXTURE = {  # the frozen fixture's architectures, sizes and epochs (test_autoencoder_frozen.py)
    "tanh32": ae.ArchSpec(hidden_sizes=(32,), activation="tanh"),
    "relu16_8": ae.ArchSpec(hidden_sizes=(16, 8), activation="relu"),
    "sigmoid4": ae.ArchSpec(hidden_sizes=(4,), activation="sigmoid"),
}
FIXTURE_SIZES, FIXTURE_EPOCHS = (11, 16, 45, 48), 3

ACTIVATIONS = {  # the activation and its derivative in terms of the activation's output
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0.0) * 1.0),
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-z)), lambda a: a * (1.0 - a)),
}


def layers(flat, arch):
    """(W, b) views of a flat parameter vector: per layer, W row-major then b."""
    dims, out, at = arch.layer_dims(), [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        end = at + fan_in * fan_out
        out.append((flat[at:end].reshape(fan_in, fan_out), flat[end : end + fan_out]))
        at = end + fan_out
    return out


def reference_train(arch, params, x, epochs, batch_size, lr, rng, state=None):
    """Mini-batch Adam on one model; returns its parameters, epoch losses and Adam (m, v, t)."""
    act, dact = ACTIVATIONS[arch.activation]
    beta1, beta2 = ae.ADAM_BETAS
    p = np.array(params, dtype=float)
    m, v, t = state if state is not None else (np.zeros_like(p), np.zeros_like(p), 0)
    trace = []
    for _ in range(epochs):
        rows, total = x[rng.permutation(len(x))], 0.0
        for lo in range(0, len(rows), batch_size):
            batch = rows[lo : lo + batch_size]
            acts = [batch]
            for k, (w, b) in enumerate(layers(p, arch)):
                z = acts[-1] @ w + b
                acts.append(z if k == len(arch.layer_dims()) - 2 else act(z))
            err = acts[-1] - batch
            total += np.mean(err * err) * len(batch)
            grad, delta = np.zeros_like(p), 2.0 * err / err.size
            for k in reversed(range(len(acts) - 1)):
                gw, gb = layers(grad, arch)[k]
                gw[:], gb[:] = acts[k].T @ delta, delta.sum(axis=0)
                if k:
                    delta = (delta @ layers(p, arch)[k][0].T) * dact(acts[k])
            t += 1
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad * grad
            m_hat, v_hat = m / (1.0 - beta1**t), v / (1.0 - beta2**t)
            p = p - lr * m_hat / (np.sqrt(v_hat) + ae.ADAM_EPS)
        trace.append(total / len(x))
    return p, trace, (m, v, t)


def relative_difference(got, ref, normwise=True) -> float:
    """Largest difference relative to the largest reference entry, or to each entry's own."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    scale = np.max(np.abs(ref)) if normwise else np.abs(ref)
    return float(np.max(np.abs(got - ref) / np.maximum(scale, np.finfo(float).tiny)))


def assert_close(got, ref, rtol, what, normwise=True):
    worst = relative_difference(got, ref, normwise)
    assert worst <= rtol, f"{what}: relative difference {worst:.3g} > {rtol:.3g}"


def trained_both_ways(arch, x, cfg, seed):
    """Train one fresh model both ways from one init and shuffle seed.

    Returns (epoch losses, the reference's) and (parameters, the reference's).
    """
    model = ae.build_autoencoder(arch, seed=seed)
    rng = np.random.default_rng(seed)
    p, trace, _ = reference_train(arch, model._flat, x, cfg.epochs, cfg.batch_size, cfg.learning_rate, rng)
    [got] = ae.train([model], [x], cfg, shuffle_rng=[np.random.default_rng(seed)])
    return (got, trace), (model._flat, p)


def check_against_reference(arch, x, cfg, seed):
    (got, trace), (params, p) = trained_both_ways(arch, x, cfg, seed)
    assert_close(got, trace, LOSS_RTOL, "epoch losses", normwise=False)
    assert_close(params, p, PARAM_RTOL, "parameters")


def make_fixture_inputs():
    """The frozen fixture's inputs, as `make_inputs` in test_autoencoder_frozen.py draws them."""
    rng = np.random.default_rng(20261018)
    return {n: rng.normal(size=(n, 5)) for n in FIXTURE_SIZES}


def fixture_case(inputs, arch_name, n):
    """The (arch, x, cfg, seed) of one frozen fixture case."""
    seed = list(FIXTURE).index(arch_name) * 100 + n
    return FIXTURE[arch_name], inputs[n], ae.TrainConfig(epochs=FIXTURE_EPOCHS, batch_size=16), seed


def drawn_case(kind, hidden, n, batch, epochs, seed):
    arch = ae.ArchSpec(hidden_sizes=hidden, activation=kind)
    x = np.random.default_rng(seed + 1).normal(size=(n, 5))
    return arch, x, ae.TrainConfig(epochs=epochs, batch_size=batch), seed


def one_row_cases(n):
    """Each fixture net on n rows at batch 16 and on 5 of them at batch 1."""
    x = np.random.default_rng(n).normal(size=(n, 5))
    for arch in FIXTURE.values():
        yield arch, x, ae.TrainConfig(epochs=2, batch_size=16), n
        yield arch, x[:5], ae.TrainConfig(epochs=2, batch_size=1), n


# the shapes and schedules the hypothesis test draws: batch 1, one-row tails (n = 17
# at 16) and n below the batch among them
DRAWN = {
    "kind": st.sampled_from(sorted(ACTIVATIONS)),
    "hidden": st.lists(st.integers(1, 12), min_size=1, max_size=2).map(tuple),
    "n": st.integers(1, 60),
    "batch": st.sampled_from([1, 2, 5, 7, 16, 24]),
    "epochs": st.integers(1, 3),
    "seed": st.integers(0, 2**20),
}
ONE_ROW_SIZES = (1, 17, 33)


@pytest.fixture(scope="module")
def fixture_inputs():
    return make_fixture_inputs()


@pytest.mark.parametrize("n", FIXTURE_SIZES)
@pytest.mark.parametrize("arch_name", list(FIXTURE))
def test_fixture_cases_match_the_reference(fixture_inputs, arch_name, n):
    check_against_reference(*fixture_case(fixture_inputs, arch_name, n))


@pytest.mark.parametrize("t0", [0, 90_000])
def test_continued_run_matches_the_reference(fixture_inputs, t0):
    # two calls that carry one Adam state on: its moments and step count continue, from
    # a fresh state or from drawn moments at step 90,000, about as far as the study's
    # central models get (there both 1 - beta**t round to exactly 1)
    arch, x = FIXTURE["tanh32"], fixture_inputs[45]
    model, opt = ae.build_autoencoder(arch, seed=5), ae.AdamState(ae.param_count(arch))
    if t0:
        m = np.random.default_rng(t0).normal(scale=1e-2, size=opt.m.shape)
        opt.m[:], opt.v[:], opt.t = m, m * m, t0
    stream, ref_stream = np.random.default_rng(55), np.random.default_rng(55)
    p, state = model._flat.copy(), (opt.m.copy(), opt.v.copy(), opt.t)
    for epochs in (2, 3):
        p, trace, state = reference_train(arch, p, x, epochs, 16, 0.001, ref_stream, state)
        [got] = ae.train([model], [x], ae.TrainConfig(epochs=epochs), [opt], [stream])
        assert_close(got, trace, LOSS_RTOL, "epoch losses", normwise=False)
    assert_close(model._flat, p, PARAM_RTOL, "parameters")
    assert_close(opt.m, state[0], PARAM_RTOL, "Adam m")
    assert_close(opt.v, state[1], PARAM_RTOL, "Adam v")
    assert opt.t == state[2] == t0 + 5 * 3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**DRAWN)
def test_drawn_shapes_and_schedules_match_the_reference(kind, hidden, n, batch, epochs, seed):
    check_against_reference(*drawn_case(kind, hidden, n, batch, epochs, seed))


@pytest.mark.parametrize("n", ONE_ROW_SIZES)
def test_one_row_batches_and_tails_match_the_reference(n):
    for case in one_row_cases(n):
        check_against_reference(*case)


def federated_both_ways():
    """Four ragged clients under 2 epochs x 3 rounds; the reference server's step is a plain weighted mean.

    Returns (client mean losses, the reference's) and (global parameters, the reference's).
    """
    arch, epochs, rounds = ae.ArchSpec(), 2, 3
    rng = np.random.default_rng(4)
    sizes = {"Manitou": 40, "AtlasD7": 11, "JawCrusher": 33, "DoosanDL200": 17}
    data = {m: rng.normal(size=(n, 5)) for m, n in sizes.items()}
    clients = fl.make_clients({m: FeatureFrame(x, np.array([m] * len(x))) for m, x in data.items()}, arch, seed=3)
    global_model = ae.build_autoencoder(arch, seed=3)
    streams = [np.random.default_rng(np.random.SeedSequence([3, i])) for i in range(len(data))]
    p, states, losses = global_model._flat.copy(), [None] * len(data), []
    for _ in range(rounds):
        results = [
            reference_train(arch, p, x, epochs, 16, 0.001, stream, state)
            for x, stream, state in zip(data.values(), streams, states)
        ]
        states = [state for _, _, state in results]
        losses += [np.mean(trace) for _, trace, _ in results]
        p = sum(n * q for n, (q, _, _) in zip(sizes.values(), results)) / sum(sizes.values())
    [history] = fl.run_schedule(fl.FLSchedule(epochs, rounds, budget=epochs * rounds), [clients], [global_model])
    return ([row["mean_loss"] for row in history], losses), (global_model._flat, p)


def test_federated_schedule_matches_the_reference():
    (got, losses), (params, p) = federated_both_ways()
    assert_close(got, losses, LOSS_RTOL, "client mean losses", normwise=False)
    assert_close(params, p, PARAM_RTOL, "global parameters")


def measure(draws: int) -> tuple[int, float, float]:
    """Cases compared, and the worst relative parameter and loss differences among them.

    The cases: the fixture's, the one-row ones, the federated schedule
    and `draws` drawn as the hypothesis test draws them (derandomized).
    """
    inputs = make_fixture_inputs()
    cases = [fixture_case(inputs, arch_name, n) for arch_name in FIXTURE for n in FIXTURE_SIZES]
    cases += [case for n in ONE_ROW_SIZES for case in one_row_cases(n)]
    collect = settings(max_examples=draws, deadline=None, derandomize=True, database=None)(
        given(**DRAWN)(lambda **drawn: cases.append(drawn_case(**drawn)))
    )
    if draws:
        collect()
    results = [trained_both_ways(*case) for case in cases] + [federated_both_ways()]
    param = max(relative_difference(*params) for _, params in results)
    loss = max(relative_difference(*losses, normwise=False) for losses, _ in results)
    return len(results), param, loss


if __name__ == "__main__":
    count, param, loss = measure(int(sys.argv[1]) if len(sys.argv) > 1 else 8000)
    print(f"{count} cases: worst relative difference {param:.3g} of the largest parameter "
          f"(PARAM_RTOL {PARAM_RTOL:.3g}), {loss:.3g} of the loss (LOSS_RTOL {LOSS_RTOL:.3g})")
