"""Spans recorded from outside the package, around calls to its public functions.

`install` replaces every public function of the layer modules, at every
module attribute that refers to it (so `fedlora.experiment.fit_iforest`
and `fedlora.iforest.fit_iforest` both record), with a wrapper that
records one span per call: name, start, end, parent span and the run
seed of the enclosing `run_single`. Spans live in flat arrays until the
run ends; `uninstall` puts the original functions back.

`layer_metrics` turns the spans of one pass into the per-layer metrics.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

LAYER_MODULES = (
    "data",
    "labeling",
    "preprocess",
    "autoencoder",
    "anomaly",
    "iforest",
    "federated",
    "lorawan",
    "experiment",
)

PACKAGE = "fedlora"
NO_SEED = -1


def _train_steps(bound, out):
    cfg = bound.arguments["cfg"]
    return math.ceil(len(bound.arguments["data"]) / cfg.batch_size) * cfg.epochs


# work counts recorded at the boundary where the work happens
_COUNTERS = {
    "autoencoder.train": _train_steps,
    "data.clean": lambda bound, out: len(out),
    "iforest.iforest_scores": lambda bound, out: len(out),
    "lorawan.plan_table": lambda bound, out: len(out),
}
# the argument that carries a span's run seed
_SEED_ARGS = {"experiment.run_single": "run_seed"}


class SpanRecorder:
    """Spans of one pass, kept in memory as parallel arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.seed = array("q")
        self.count = array("q")
        self._stack = [-1]
        self.current_seed = NO_SEED

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.seed.append(self.current_seed)
        self.count.append(0)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)


class Tracer:
    """Installs span-recording wrappers into the package's modules."""

    def __init__(self):
        self.recorder: SpanRecorder | None = None
        self._patched: list[tuple[object, str, object]] = []
        self.aliases: list[str] = []  # every patched `module.attribute`

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        seed_arg = _SEED_ARGS.get(name)
        signature = inspect.signature(fn) if counter or seed_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.recorder
            bound = signature.bind(*args, **kwargs) if signature else None
            outer_seed = rec.current_seed
            if seed_arg:
                rec.current_seed = int(bound.arguments[seed_arg])
            sid = rec.open(rec.name_index(name))
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(sid)
                rec.current_seed = outer_seed
            if counter:
                rec.count[sid] = counter(bound, out)
            return out

        return traced

    def install(self, recorder: SpanRecorder) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self.recorder = recorder
        wrappers = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        # patch every alias, including re-exports and `from x import f` copies
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        self.aliases = sorted(f"{m.__name__}.{a}" for m, a, _ in self._patched)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.recorder = None


class _Spans:
    """Read-side view of one recorder: durations, children and ancestors."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.names = [rec.names[i] for i in rec.name_id]
        self.dur = [e - s for s, e in zip(rec.start, rec.end)]
        self.by_name: dict[str, list[int]] = {}
        for sid, name in enumerate(self.names):
            self.by_name.setdefault(name, []).append(sid)
        self.kids: dict[int, list[int]] = {}
        for sid, p in enumerate(rec.parent):
            if p >= 0:
                self.kids.setdefault(p, []).append(sid)

    def ids(self, names) -> list[int]:
        return sorted(sid for n in names for sid in self.by_name.get(n, ()))

    def has_ancestor(self, sid: int, names) -> bool:
        p = self.rec.parent[sid]
        while p >= 0:
            if self.names[p] in names:
                return True
            p = self.rec.parent[p]
        return False

    def top(self, names, outside=()) -> list[int]:
        """Spans named in `names` not nested in another such span or in `outside`."""
        names = set(names)
        stop = names | set(outside)
        return [sid for sid in self.ids(names) if not self.has_ancestor(sid, stop)]

    def total(self, names, outside=()) -> float:
        return sum(self.dur[sid] for sid in self.top(names, outside))

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def counted(self, sids) -> int:
        return sum(self.rec.count[sid] for sid in sids)

    def children(self, sid: int, name: str | None = None) -> list[int]:
        return [c for c in self.kids.get(sid, ()) if name is None or self.names[c] == name]


def idle_share(client_times_per_round: list[list[float]]) -> float:
    """1 - busy / (clients x sum of per-round maxima): the idle share parallel clients would have."""
    rounds = [t for t in client_times_per_round if t]
    if not rounds:
        return 0.0
    clients = max(len(t) for t in rounds)
    span = clients * sum(max(t) for t in rounds)
    return 1.0 - sum(sum(t) for t in rounds) / span if span > 0 else 0.0


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass (seconds, counts and ratios)."""
    sp = _Spans(rec)
    m: dict[str, float] = {}

    m["data.generate_s"] = sp.total({"data.generate_synthetic"})
    m["data.ingest_csv_s"] = sp.total({"data.ingest_csv"})
    m["data.ingest_ttn_s"] = sp.total({"data.ingest_ttn_json"})
    m["data.clean_s"] = sp.total({"data.clean"})
    m["data.select_s"] = sp.total({"data.select_features"})
    m["data.rows_kept"] = sp.counted(sp.top({"data.clean"}))

    m["labeling.range_s"] = sp.total({"labeling.label_by_range"})
    m["labeling.iqr_s"] = sp.total({"labeling.label_by_iqr", "labeling.iqr_bounds"})

    m["preprocess.split_s"] = sp.total({"preprocess.stratified_split"})
    m["preprocess.scale_s"] = sp.total(
        {"preprocess.fit_standardizer", "preprocess.apply_standardizer"}
    )

    trains = sp.top({"autoencoder.train"})
    m["autoencoder.train_s"] = sum(sp.dur[s] for s in trains)
    m["autoencoder.train_calls"] = len(trains)
    m["autoencoder.steps"] = sp.counted(trains)
    m["autoencoder.step_us"] = (
        1e6 * m["autoencoder.train_s"] / m["autoencoder.steps"] if m["autoencoder.steps"] else 0.0
    )

    m["anomaly.errors_s"] = sp.total(
        {"anomaly.reconstruction_errors", "anomaly.squared_deviations"}
    )
    m["anomaly.threshold_s"] = sp.total(
        {"anomaly.select_threshold", "anomaly.initial_threshold", "anomaly.classify"}
    )

    m["iforest.fit_s"] = sp.total({"iforest.fit_iforest"})
    scoring = {"iforest.iforest_classify", "iforest.iforest_scores"}
    m["iforest.score_s"] = sp.total(scoring, outside={"iforest.fit_iforest"})
    m["iforest.rows_scored"] = sp.counted(sp.ids({"iforest.iforest_scores"}))

    rounds = sp.top({"federated.run_round"})
    per_round = [[sp.dur[c] for c in sp.children(r, "autoencoder.train")] for r in rounds]
    m["federated.round_s"] = sum(sp.dur[r] for r in rounds)
    m["federated.round_self_s"] = m["federated.round_s"] - sum(map(sum, per_round))
    m["federated.fedavg_s"] = sp.total({"federated.fedavg"})
    m["federated.fedavg_calls"] = sp.calls("federated.fedavg")
    m["federated.checksum_s"] = sp.total({"federated.fnv1a64"}) + sum(
        sp.dur[c]
        for s in sp.ids({"federated.run_schedule"})
        for c in sp.children(s, "autoencoder.serialize")
    )
    m["federated.idle_share"] = idle_share(per_round)

    plans = sp.top({"lorawan.plan_table"})
    m["lorawan.plan_s"] = sum(sp.dur[s] for s in plans)
    m["lorawan.rows"] = sp.counted(plans)

    m["experiment.load_s"] = sp.total({"experiment.load_dataset"})
    m["experiment.report_s"] = sp.total({"experiment.write_report_files"})
    m["experiment.self_s"] = sum(
        sp.dur[s] - sum(sp.dur[c] for c in sp.children(s))
        for s in sp.top({"experiment.run_experiment"})
    )
    return m


def span_calls(rec: SpanRecorder) -> dict[str, int]:
    """Calls recorded per span name."""
    out: dict[str, int] = {}
    for i in rec.name_id:
        out[rec.names[i]] = out.get(rec.names[i], 0) + 1
    return out
