"""Federated training loop: clients, rounds, weighted aggregation, history.

One client per machine. Every round the server pushes the weights of
the global model (an `AutoencoderModel`), each client trains locally for
the round's epoch budget on its own partition, and the server writes the
client vectors' sample-count-weighted average back into the model.
Clients keep their optimizer state and shuffle stream across rounds, so
a single-client schedule follows uninterrupted local training exactly.
A whole schedule trains in one lockstep `ae.train` call, and the server
step runs inside it at each round's end.

Aggregation accumulates in extended precision before rounding back to
float64; that keeps the result inside the elementwise envelope of the
inputs and makes averaging identical vectors an exact no-op.
Thresholds and evaluation of the global model live in `anomaly`.
"""

from __future__ import annotations

import dataclasses
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
        if count <= 0:
            raise ValueError("sample counts must be positive")
        total += count
    total_ld = np.longdouble(total)
    acc = np.zeros(dim, dtype=np.longdouble)
    for vec, count in updates:
        v = np.asarray(vec, dtype=np.float64)
        if v.shape != dim:
            raise ValueError("client weight vectors differ in length")
        acc += (np.longdouble(count) / total_ld) * v.astype(np.longdouble)
    return np.asarray(acc, dtype=np.float64)


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


def _federations(global_model, clients) -> tuple[bool, list[ae.AutoencoderModel], list[list[ClientState]]]:
    """One global model and client list, or a list of each (one per federation)."""
    if not isinstance(global_model, (list, tuple)):
        return False, [global_model], [list(clients)]
    if not clients or len(clients) != len(global_model) or not all(clients):
        raise ValueError("a federation list needs one non-empty client list per global model")
    return True, list(global_model), [list(group) for group in clients]


def run_round(
    global_model: ae.AutoencoderModel | list[ae.AutoencoderModel],
    clients: list[ClientState] | list[list[ClientState]],
    epochs: int,
    cfg: ae.TrainConfig,
    *,
    rounds: int | None = None,
) -> dict[str, float] | list[dict[str, float]] | tuple[list[list[dict[str, float]]], bytearray]:
    """One federated round; returns each client's mean local training loss.

    Given lists of global models and of their client lists (one per
    independent federation), it returns one loss dict per federation.
    Every client of every federation trains in one lockstep `ae.train`
    call, which gives each the result its own call would; aggregation
    stays per federation, at the round's end inside that call, on the
    training stack's client rows (the client models get their weights last).

    `rounds` is for `run_schedule`: the call then runs that many rounds
    back to back (each round's end averages, then broadcasts the next
    round's weights into the clients) and returns the list form's loss
    dicts per round, with every round's serialized global models.
    """
    many, globals_, groups = _federations(global_model, clients)
    count = rounds or 1
    flat = [client for group in groups for client in group]
    blobs = bytearray()
    ended = 0

    def end_round(rows):
        nonlocal ended
        ended += 1
        rows = iter(rows)
        for fed, group in zip(globals_, groups):
            members = [next(rows) for _ in group]
            average = fedavg([(row, client.n_samples) for row, client in zip(members, group)])
            ae.set_weights(fed, average)
            if rounds is not None:
                blobs.extend(ae.serialize(fed))
            if ended < count:  # broadcast the next round's weights
                for row in members:
                    row[:] = average

    for fed, group in zip(globals_, groups):
        for client in group:
            ae.set_weights(client.model, ae.get_weights(fed))
    traces = ae.train(
        [client.model for client in flat],
        [client.train_frame for client in flat],
        dataclasses.replace(cfg, epochs=epochs * count),  # every client brings its shuffle stream
        optimizer=[client.optimizer for client in flat],
        shuffle_rng=[client.shuffle_rng for client in flat],
        _round_end=(epochs, end_round),
    )
    while ended < count:  # no epoch ran, so every client still holds the global weights
        end_round([ae.get_weights(client.model) for client in flat])
    means = np.full((count, len(flat)), np.nan)
    if epochs:  # each round's mean of each trace, as np.mean of its slice gives it
        means = np.mean(np.array(traces).reshape(len(flat), count, epochs), axis=2).T
    per_round = []
    for row in means.tolist():
        row = iter(row)
        per_round.append([{client.client_id: next(row) for client in group} for group in groups])
    if rounds is not None:
        return per_round, blobs
    return per_round[0] if many else per_round[0][0]


def run_schedule(
    schedule: FLSchedule,
    clients: list[ClientState] | list[list[ClientState]],
    global_model: ae.AutoencoderModel | list[ae.AutoencoderModel],
    cfg: ae.TrainConfig | None = None,
) -> tuple[ae.AutoencoderModel, list[dict]] | tuple[list[ae.AutoencoderModel], list[list[dict]]]:
    """Execute all rounds of a schedule, recording a per-round history.

    History rows carry the round (1..R within this call), each client's
    epochs and mean loss, and a checksum of the serialized global model;
    all rounds' checksums are computed together after the last one.
    Given lists of federations (as run_round takes them), all advance
    round by round together, and the global models and one history per
    federation come back as lists. The whole schedule is one `run_round`
    call, and so one `ae.train` call, that averages at every round end.
    """
    many, globals_, groups = _federations(global_model, clients)
    cfg = cfg or ae.TrainConfig()
    per_round, blobs = run_round(globals_, groups, schedule.epochs_per_round, cfg, rounds=schedule.rounds)
    histories: list[list[dict]] = [[] for _ in globals_]
    round_rows = []
    for round_no, losses in enumerate(per_round, 1):
        for group, fed_losses, history in zip(groups, losses, histories):
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
    return (globals_, histories) if many else (global_model, histories[0])
