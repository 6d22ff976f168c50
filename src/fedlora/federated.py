"""Federated training loop: clients, rounds, weighted aggregation, history.

One client per machine. Every round the server pushes the weights of
the global model (an `AutoencoderModel`), each client trains locally for
the round's epoch budget on its own partition, and the server writes the
client vectors' sample-count-weighted average back into the model.
Clients keep their optimizer state and shuffle stream across rounds, so
a single-client schedule follows uninterrupted local training exactly.
`run_round` and `run_schedule` take lists: one global model and one
client list per independent federation (the study runs one a seed). A
whole schedule trains in one lockstep `ae.train` call, and the server
step runs inside it at each round's end.

Aggregation accumulates in extended precision before rounding back to
float64; that keeps the result inside the elementwise envelope of the
inputs and makes averaging identical vectors an exact no-op.
Thresholds and evaluation of the global model live in `anomaly`.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

import numpy as np

from . import autoencoder as ae
from .frame import FeatureFrame, write_dict_csv

REFERENCE_THRESHOLD = 0.16225


def fedavg(updates: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Sample-count-weighted average of client weight vectors.

    Summation runs in the given (client-index) order, so the result is a
    pure function of the ordered update list.
    """
    if not updates:
        raise ValueError("no client updates to aggregate")
    dim = np.asarray(updates[0][0]).shape
    total = 0
    for _, count in updates:
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(f"sample counts must be integers >= 1, got {count!r}")
        total += count
    total_ld = np.longdouble(total)
    acc = np.zeros(dim, dtype=np.longdouble)
    for vec, count in updates:
        v = np.asarray(vec, dtype=np.float64)
        if v.shape != dim:
            raise ValueError("client weight vectors differ in length")
        acc += (np.longdouble(count) / total_ld) * v.astype(np.longdouble)
    average = np.asarray(acc, dtype=np.float64)
    if not np.isfinite(average).all():  # a NaN or infinite entry in any update
        raise ValueError("client updates must be finite")
    return average


def fnv1a64(rows: np.ndarray) -> list[int]:
    """FNV-1a 64-bit checksum of each row of an (n, L) uint8 matrix."""
    if not isinstance(rows, np.ndarray) or rows.ndim != 2 or rows.dtype != np.uint8:
        raise ValueError("fnv1a64 takes a 2-D uint8 matrix")
    h = np.full(len(rows), 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    for column in rows.T:  # every row at once, one byte column a step
        h ^= column
        h *= prime  # wraps modulo 2**64
    return h.tolist()


HISTORY_COLUMNS = ("round", "client", "epochs", "mean_loss", "global_checksum")


def write_history_csv(history: list[dict], path) -> None:
    """Export a run_schedule history: one row per (round, client)."""
    write_dict_csv(path, HISTORY_COLUMNS, history)


@dataclass
class FLSchedule:
    """Epochs per round x rounds; the product must equal the epoch budget."""

    epochs_per_round: int
    rounds: int
    budget: int = 80

    def __post_init__(self):
        if self.epochs_per_round < 1 or self.rounds < 1:
            raise ValueError("epochs_per_round and rounds must be >= 1")
        if self.epochs_per_round * self.rounds != self.budget:
            raise ValueError(
                f"schedule {self.epochs_per_round}x{self.rounds} does not meet "
                f"the budget of {self.budget} epochs"
            )


# epoch-per-round / round combinations explored for an 80-epoch budget
SCHEDULE_COMBOS = ((1, 80), (2, 40), (4, 20), (5, 16), (8, 10), (10, 8), (16, 5), (20, 4), (40, 2), (80, 1))


@dataclass
class ClientState:
    """One machine's local training data, model and training state."""

    client_id: str
    train_frame: FeatureFrame
    model: ae.AutoencoderModel
    optimizer: ae.AdamState
    shuffle_rng: np.random.Generator

    @property
    def n_samples(self) -> int:
        return len(self.train_frame)


def make_clients(
    train_by_machine: dict[str, FeatureFrame],
    arch: ae.ArchSpec,
    seed: int,
) -> list[ClientState]:
    """One client per machine: a derived shuffle stream, and a zero model each round overwrites."""
    clients = []
    for idx, (machine_id, train_frame) in enumerate(train_by_machine.items()):
        if len(train_frame) == 0:
            raise ValueError(f"client {machine_id!r} has no training data")
        clients.append(
            ClientState(
                client_id=machine_id,
                train_frame=train_frame,
                model=ae.AutoencoderModel(arch),
                optimizer=ae.AdamState(ae.param_count(arch)),
                shuffle_rng=np.random.default_rng(np.random.SeedSequence([seed, idx])),
            )
        )
    return clients


def run_round(
    global_model: list[ae.AutoencoderModel],
    clients: list[list[ClientState]],
    epochs: int,
    cfg: ae.TrainConfig,
    *,
    rounds: int = 1,
) -> tuple[list[list[dict[str, float]]], bytearray]:
    """`rounds` federated rounds of `epochs` local epochs for a list of federations.

    `global_model` and `clients` hold one global model and one non-empty
    client list per federation. All clients train in one lockstep
    `ae.train` call, each as its own call would; every round's end
    averages per federation on the training stack's client rows, inside
    that call, and broadcasts the next round's weights (the client models
    get their weights last). Returns, per round, one dict of client mean
    losses per federation, and all rounds' serialized global models.
    """
    if not (
        isinstance(global_model, (list, tuple))
        and isinstance(clients, (list, tuple))
        and len(clients) == len(global_model) > 0
        and all(isinstance(group, (list, tuple)) and group for group in clients)
    ):
        raise ValueError("run_round takes lists: one non-empty client list per global model")
    if epochs < 1 or rounds < 1:
        raise ValueError("epochs and rounds must be >= 1")
    flat = [client for group in clients for client in group]
    blobs = bytearray()
    ended = 0

    def end_round(rows):
        nonlocal ended
        ended += 1
        rows = iter(rows)
        for fed, group in zip(global_model, clients):
            members = [next(rows) for _ in group]
            average = fedavg([(row, client.n_samples) for row, client in zip(members, group)])
            ae.set_weights(fed, average)
            blobs.extend(ae.serialize(fed))
            if ended < rounds:  # broadcast the next round's weights
                for row in members:
                    row[:] = average

    for fed, group in zip(global_model, clients):
        for client in group:
            ae.set_weights(client.model, ae.get_weights(fed))
    traces = ae.train(
        [client.model for client in flat],
        [client.train_frame for client in flat],
        dataclasses.replace(cfg, epochs=epochs * rounds),  # every client brings its shuffle stream
        optimizer=[client.optimizer for client in flat],
        shuffle_rng=[client.shuffle_rng for client in flat],
        _round_end=(epochs, end_round),
    )
    # each round's mean of each trace, as np.mean of its slice gives it
    means = np.mean(np.array(traces).reshape(len(flat), rounds, epochs), axis=2).T
    per_round = []
    for row in means.tolist():
        row = iter(row)
        per_round.append([{client.client_id: next(row) for client in group} for group in clients])
    return per_round, blobs


def run_schedule(
    schedule: FLSchedule,
    clients: list[list[ClientState]],
    global_model: list[ae.AutoencoderModel],
    cfg: ae.TrainConfig | None = None,
) -> list[list[dict]]:
    """Run a schedule for a list of federations; returns one history each.

    `clients` and `global_model` are as run_round takes them, and the
    global models are updated in place. History rows carry the round
    (1..R within this call), each client's epochs and mean loss, and a
    checksum of the serialized global model; all rounds' checksums are
    computed together after the last one. The whole schedule is one
    `run_round` call, and so one `ae.train` call, that averages at every
    round end.
    """
    cfg = cfg or ae.TrainConfig()
    per_round, blobs = run_round(global_model, clients, schedule.epochs_per_round, cfg, rounds=schedule.rounds)
    histories: list[list[dict]] = [[] for _ in global_model]
    round_rows = []
    for round_no, losses in enumerate(per_round, 1):
        for group, fed_losses, history in zip(clients, losses, histories):
            rows = [
                {
                    "round": round_no,
                    "client": client.client_id,
                    "epochs": schedule.epochs_per_round,
                    "mean_loss": fed_losses[client.client_id],
                }
                for client in group
            ]
            history.extend(rows)
            round_rows.append(rows)
    checksums = fnv1a64(np.frombuffer(blobs, dtype=np.uint8).reshape(len(round_rows), -1))
    for rows, checksum in zip(round_rows, checksums):
        for row in rows:
            row["global_checksum"] = checksum
    return histories
