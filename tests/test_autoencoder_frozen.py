"""Autoencoder training pinned to trajectories frozen from the serial trainer.

`autoencoder_frozen.npz` holds the inputs and the results that the
one-model-per-call trainer produced:

- per-epoch loss traces and final weights for tanh 5-32-5, relu
  (16, 8) and sigmoid (4,) nets, each on data sizes below (11), equal to
  (16), not a multiple of (45) and a multiple of (48) the batch size;
- a run continued over two calls with one AdamState and one shuffle
  stream, with the final Adam moments and step counter;
- a four-client ragged federated schedule (292, 11, 198 and 322 rows)
  under 1x6 and 3x2, with the global weights after every round, the
  loss history, every client's mean loss and every round checksum.

Any change to the training kernel must reproduce them bit for bit. The
file also stores the host kernel it was frozen under (see conftest.py),
which a mismatch prints beside this host's.

Re-freeze (only for a deliberate change of results) with
`python tests/test_autoencoder_frozen.py`; it prints every key that
moved.
"""

from pathlib import Path

import numpy as np
import pytest

from fedlora import autoencoder as ae
from fedlora import federated as fl
from fedlora.frame import FeatureFrame

FROZEN = Path(__file__).with_name("autoencoder_frozen.npz")

ARCHS = {
    "tanh32": ae.ArchSpec(hidden_sizes=(32,), activation="tanh"),
    "relu16_8": ae.ArchSpec(hidden_sizes=(16, 8), activation="relu"),
    "sigmoid4": ae.ArchSpec(hidden_sizes=(4,), activation="sigmoid"),
}
SIZES = (11, 16, 45, 48)
EPOCHS = 3
CLIENT_ROWS = {"Manitou": 292, "AtlasD7": 11, "JawCrusher": 198, "DoosanDL200": 322}
SCHEDULES = ((1, 6), (3, 2))


def make_inputs() -> dict[str, np.ndarray]:
    """The training data every case reads (stored in the frozen file)."""
    rng = np.random.default_rng(20261018)
    inputs = {f"data_{n}": rng.normal(size=(n, 5)) for n in SIZES}
    for machine, rows in CLIENT_ROWS.items():
        inputs[f"client_{machine}"] = rng.normal(size=(rows, 5))
    return inputs


def single_case(inputs, arch_name: str, n: int) -> dict[str, np.ndarray]:
    seed = list(ARCHS).index(arch_name) * 100 + n
    model = ae.build_autoencoder(ARCHS[arch_name], seed=seed)
    cfg = ae.TrainConfig(epochs=EPOCHS, batch_size=16)
    [trace] = ae.train([model], [inputs[f"data_{n}"]], cfg, shuffle_rng=[np.random.default_rng(seed)])
    return {"trace": np.array(trace), "weights": ae.get_weights(model)}


def continued_case(inputs) -> dict[str, np.ndarray]:
    model = ae.build_autoencoder(ARCHS["tanh32"], seed=5)
    opt = ae.AdamState(model.n_params)
    stream = np.random.default_rng(55)
    traces = [
        ae.train([model], [inputs["data_45"]], ae.TrainConfig(epochs=epochs), [opt], [stream])[0]
        for epochs in (2, 3)
    ]
    return {
        "trace1": np.array(traces[0]),
        "trace2": np.array(traces[1]),
        "weights": ae.get_weights(model),
        "m": opt.m.copy(),
        "v": opt.v.copy(),
        "t": np.array(opt.t),
    }


def federated_case(inputs, epochs: int, rounds: int) -> dict[str, np.ndarray]:
    arch = ae.ArchSpec()
    train = {
        m: FeatureFrame(inputs[f"client_{m}"], np.array([m] * rows))
        for m, rows in CLIENT_ROWS.items()
    }
    clients = fl.make_clients(train, arch, seed=7)
    global_model = ae.build_autoencoder(arch, seed=7)
    weights, history = [], []
    for _ in range(rounds):
        # one-round schedules, so the global weights can be read after each
        [rows] = fl.run_schedule(fl.FLSchedule(epochs, 1, budget=epochs), [clients], [global_model])
        weights.append(ae.get_weights(global_model))
        history.extend(rows)
    mean_loss = np.array([row["mean_loss"] for row in history])
    return {
        "weights": np.array(weights),
        # a round's loss: the mean of its clients' mean losses, in client order
        "loss_history": mean_loss.reshape(rounds, len(clients)).mean(axis=1),
        "mean_loss": mean_loss,
        "checksums": np.array([row["global_checksum"] for row in history], dtype=np.uint64),
    }


def compute_all(inputs) -> dict[str, np.ndarray]:
    """Every frozen result, keyed as in the frozen file."""
    out = {}
    for arch_name in ARCHS:
        for n in SIZES:
            for key, value in single_case(inputs, arch_name, n).items():
                out[f"single_{arch_name}_{n}_{key}"] = value
    for key, value in continued_case(inputs).items():
        out[f"continued_{key}"] = value
    for epochs, rounds in SCHEDULES:
        for key, value in federated_case(inputs, epochs, rounds).items():
            out[f"fed_{epochs}x{rounds}_{key}"] = value
    return out


@pytest.fixture(scope="module")
def frozen():
    with np.load(FROZEN) as data:
        return dict(data)


def _kernels(frozen, host_kernel) -> str:
    return f"frozen under [{frozen['host_kernel']}], running [{host_kernel}]"


def _assert_matches(frozen, prefix, result, host_kernel):
    for key, value in result.items():
        expected = frozen[f"{prefix}_{key}"]
        assert value.shape == expected.shape, f"{key}; {_kernels(frozen, host_kernel)}"
        assert np.array_equal(value, expected), f"{key}; {_kernels(frozen, host_kernel)}"


def test_inputs_are_the_frozen_ones(frozen, host_kernel):
    for key, value in make_inputs().items():
        assert np.array_equal(value, frozen[key]), f"{key}; {_kernels(frozen, host_kernel)}"


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("arch_name", list(ARCHS))
def test_single_model_matches_frozen(frozen, host_kernel, arch_name, n):
    _assert_matches(frozen, f"single_{arch_name}_{n}", single_case(frozen, arch_name, n), host_kernel)


def test_continued_run_matches_frozen(frozen, host_kernel):
    _assert_matches(frozen, "continued", continued_case(frozen), host_kernel)


@pytest.mark.parametrize("epochs,rounds", SCHEDULES)
def test_federated_schedule_matches_frozen(frozen, host_kernel, epochs, rounds):
    result = federated_case(frozen, epochs, rounds)
    _assert_matches(frozen, f"fed_{epochs}x{rounds}", result, host_kernel)


if __name__ == "__main__":
    from conftest import host_kernel_string, print_moved

    inputs = make_inputs()
    refrozen = {**inputs, **compute_all(inputs), "host_kernel": np.array(host_kernel_string())}
    with np.load(FROZEN) as old:
        print_moved({key: old[key] for key in old.files}, refrozen)
    np.savez_compressed(FROZEN, **refrozen)
