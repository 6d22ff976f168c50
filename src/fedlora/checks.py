"""The release gates, defined once for `fedlora --check` and the acceptance tests.

Each check runs at full release size and returns a one-line summary or raises
`AssertionError` naming the first condition that fails; `run_all_checks` turns
each outcome into a `CheckResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import anomaly
from . import autoencoder as ae
from . import federated as fl
from . import lorawan
from .data import GenConfig, generate_synthetic, select_features
from .frame import FeatureFrame
from .iforest import fit_iforest, iforest_classify
from .labeling import DEFAULT_RANGES
from .metrics import ConfusionMatrix, all_metrics, confusion, f1, precision, tnr, tpr


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _require(cond, detail: str) -> None:
    if not cond:
        raise AssertionError(detail)


def check_size_accounting() -> str:
    # h=128 follows the layer shapes: the published 1143 contradicts its 5.52 KB
    published = {16: (181, 0.70), 32: (357, 1.39), 64: (709, 2.77), 128: (1413, 5.52)}
    for h, (params, kb) in published.items():
        arch = ae.ArchSpec(hidden_sizes=(h,))
        _require(ae.param_count(arch) == params, f"h={h}: param count is not {params}")
        nbytes = ae.serialized_param_bytes(ae.build_autoencoder(arch, seed=0))
        _require(nbytes == params * 4, f"h={h}: payload is not {params} x 4 B")
        # two-decimal agreement: within one unit in the last place
        _require(abs(nbytes / 1024 - kb) <= 0.01, f"h={h}: payload is not {kb} KB")
    return "181/357/709/1413 params, KB column matches"


def check_planner_figures() -> str:
    cases = [(0.70, 7, 1, 4), (1.39, 7, 80, 513), (1.39, 12, 80, 2233), (5.52, 12, 80, 8867)]
    for kb, sf, rounds, expected in cases:
        got = lorawan.messages_required(kb * 1024, rounds, lorawan.PROFILES[sf], "total")
        _require(got == expected, f"{kb} KB SF{sf} x{rounds}: {got} != {expected} messages")
    hours = lorawan.training_hours(513, lorawan.PROFILES[7])
    # within 1e-4 h of 0.8835 h also puts it within 0.05 min of 53.01 min
    _require(abs(hours - 0.8835) <= 1e-4, f"Nh(513, SF7) = {hours}, not 0.8835 h")
    return "4/513/2233/8867 messages, 0.8835 h"


def check_fedavg_properties() -> str:
    rng = np.random.default_rng(33)
    for case in range(1000):
        k = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 40))
        vecs = rng.normal(size=(k, dim)) * 10.0 ** float(rng.integers(-3, 4))
        counts = [int(c) for c in rng.integers(1, 100_000, size=k)]
        out = fl.fedavg(list(zip(vecs, counts)))
        oracle = sum((c / sum(counts)) * v for v, c in zip(vecs, counts))
        # 1e-12 relative to the aggregate's scale; elementwise relative would
        # reject near-cancelling sums the float64 oracle resolves less accurately
        tol = 1e-12 * max(1.0, float(np.abs(vecs).max()))
        _require(np.allclose(out, oracle, rtol=1e-12, atol=tol), f"case {case}: weighted mean")
        inside = np.all(out >= vecs.min(axis=0)) and np.all(out <= vecs.max(axis=0))
        _require(inside, f"case {case}: left the convex envelope")
        same = fl.fedavg([(vecs[0], c) for c in counts])
        _require(np.array_equal(same, vecs[0]), f"case {case}: not idempotent")
        equal = fl.fedavg([(v, 17) for v in vecs])
        _require(np.allclose(equal, vecs.mean(axis=0), rtol=1e-12, atol=tol), f"case {case}: mean")
        shuffled = fl.fedavg([(vecs[i], counts[i]) for i in rng.permutation(k)])
        _require(np.allclose(shuffled, out, rtol=1e-12, atol=tol), f"case {case}: order-dependent")
    hand = fl.fedavg([(np.array([1.0, 1.0]), 5), (np.array([3.0, 3.0]), 5)])
    _require(np.array_equal(hand, np.array([2.0, 2.0])), "two-client hand case is not exact")
    return "1000 random cases: oracle, envelope, idempotence, equal counts, order"


def check_threshold_sweep() -> str:
    rng = np.random.default_rng(44)
    grid = np.arange(0, 1001) / 10.0
    checked = 0
    while checked < 120:
        n = int(rng.integers(10, 201))
        labels = rng.random(n) < rng.uniform(0.05, 0.5)
        if labels.all() or not labels.any():
            continue
        scores = np.abs(rng.normal(size=n)) + labels * rng.uniform(0.0, 2.5)
        # the 0.1-percentile grid reaches every inter-score gap for n <= 200,
        # so the sweep must match the exhaustive oracle
        got = anomaly.select_threshold(scores, labels, grid).f1
        best = _midpoint_oracle(scores, labels)
        _require(abs(got - best) <= 1e-9, f"instance {checked}: sweep F1 {got} != oracle {best}")
        # the default sweep never drops below the 84th-percentile start's F1
        ref = f1(confusion(labels, anomaly.classify(scores, anomaly.initial_threshold(scores))))
        default = anomaly.select_threshold(scores, labels).f1
        _require(default >= ref - 1e-12, f"instance {checked}: below the initial-threshold F1")
        checked += 1
    return "120 random instances vs midpoint oracle"


def _midpoint_oracle(scores, labels) -> float:
    uniq = np.unique(scores)
    candidates = [*(uniq[:-1] + uniq[1:]) / 2.0, uniq[-1] + 1.0]  # midpoints, then all normal
    return max(f1(confusion(labels, scores > t)) for t in candidates)


def check_metric_identities() -> str:
    got = all_metrics(ConfusionMatrix(tp=3, fp=1, tn=4, fn=2))
    want = {"accuracy": 70.0, "precision": 75.0, "tnr": 80.0, "tpr": 60.0, "f1": 200.0 / 3.0}
    for key, val in want.items():
        _require(abs(got[key] - val) <= 1e-12, f"hand case: {key} {got[key]} != {val}")
    rng = np.random.default_rng(55)
    for case in range(10_000):
        cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 2000, size=4)))
        pre, rec = precision(cm), tpr(cm)
        if pre > 0 and rec > 0:
            harmonic = 2 * pre * rec / (pre + rec)
            _require(abs(f1(cm) - harmonic) <= 1e-9, f"matrix {case}: F1 not harmonic")
        p, n = cm.tp + cm.fn, cm.tn + cm.fp
        if p > 0 and n > 0:
            # an exact rational identity; its float evaluation agrees to 1e-9
            lhs = Fraction(100 * (cm.tp + cm.tn), cm.total)
            rhs = (p * Fraction(100 * cm.tp, p) + n * Fraction(100 * cm.tn, n)) / (p + n)
            _require(lhs == rhs, f"matrix {case}: accuracy decomposition")
            float_rhs = (p * tpr(cm) + n * tnr(cm)) / (p + n)
            acc = all_metrics(cm)["accuracy"]
            _require(abs(acc - float_rhs) <= 1e-9, f"matrix {case}: float accuracy")
    return "hand case + 10000 random matrices"


def check_gradients() -> str:
    rng = np.random.default_rng(66)
    for activation in ("tanh", "sigmoid"):
        for hidden in ((1,), (2,), (3,), (4,)):
            arch = ae.ArchSpec(hidden_sizes=hidden, activation=activation)
            _require(ae.param_count(arch) <= 50, f"{activation} {hidden}: over 50 parameters")
            model = ae.build_autoencoder(arch, seed=int(rng.integers(1 << 30)))
            x = rng.normal(size=(6, 5))
            err = np.max(np.abs(ae.loss_and_gradient(model, x)[1] - _fd_gradient(model, x)))
            _require(err < 1e-5, f"{activation} {hidden}: backprop off by {err:.1e}")
    return "tanh/sigmoid x 1-4 hidden units within 1e-5 of central differences"


def _fd_gradient(model, x, step: float = 1e-4) -> np.ndarray:
    base = ae.get_weights(model)
    fd = np.zeros_like(base)
    for i in range(base.size):
        for sign in (1.0, -1.0):
            w = base.copy()
            w[i] += sign * step
            ae.set_weights(model, w)
            fd[i] += sign * ae.mse(ae.forward(model, x), x)
        fd[i] /= 2 * step
    ae.set_weights(model, base)
    return fd


def check_iforest_recovery() -> str:
    frame = _planted_outlier_frame()
    forest = fit_iforest(frame, n_trees=100, max_samples=0.27, seed=9)
    preds = iforest_classify(forest, frame, contamination=0.07)
    recovered = np.sum(preds & frame.labels) / frame.labels.sum()
    _require(recovered >= 0.80, f"recovered {recovered:.0%} of planted outliers (< 80%)")
    return f"recovered {recovered:.0%} of planted outliers"


def _planted_outlier_frame() -> FeatureFrame:
    """Clean synthetic data with 7% of rows pushed 10 range widths out on one feature."""
    counts = {m: n // 5 for m, n in GenConfig().counts.items()}
    gen = GenConfig(counts=counts, anomaly_fraction=0.0, seed=99)
    frame = select_features(generate_synthetic(gen))
    rng = np.random.default_rng(9)
    planted = rng.random(len(frame)) < 0.07
    values, names = frame.values.copy(), frame.machine_ids
    for row in np.flatnonzero(planted):
        j = int(rng.integers(5))
        lo, hi = DEFAULT_RANGES.limits(names[row])[:, j]
        width = hi - lo
        values[row, j] = hi + 10.0 * width if rng.random() < 0.5 else lo - 10.0 * width
    return FeatureFrame(values, frame.machine_codes, planted)


def check_e2e(ae_metrics: dict, fl_metrics: dict) -> str:
    """Centralized F1 >= 90 and federated F1/TNR within 5/10 points of it."""
    (ae_f1, ae_tnr), (fl_f1, fl_tnr) = ((m["f1"], m["tnr"]) for m in (ae_metrics, fl_metrics))
    _require(ae_f1 >= 90.0, f"AE F1 {ae_f1:.2f} below 90")
    _require(abs(ae_f1 - fl_f1) <= 5.0, f"AEFL F1 {fl_f1:.2f} not within 5 of {ae_f1:.2f}")
    _require(abs(ae_tnr - fl_tnr) <= 10.0, f"AEFL TNR {fl_tnr:.2f} not within 10 of {ae_tnr:.2f}")
    return f"AE F1 {ae_f1:.2f} (>= 90), AEFL F1 {fl_f1:.2f} (within 5), TNR within 10"


def check_sweep(rows: list[dict]) -> str:
    """All ten splits of the 80-epoch budget ran, and each one lowered the loss."""
    combos = [(row["epochs_per_round"], row["rounds"]) for row in rows]
    full = len(combos) == len(set(combos)) == 10 and set(combos) == set(fl.SCHEDULE_COMBOS)
    _require(full and {e * r for e, r in combos} == {80}, f"{combos}: not the 10 splits of 80")
    for (e, r), row in zip(combos, rows):
        _require(row["final_loss"] < row["initial_loss"], f"{e} epochs x {r} rounds: loss rose")
    return "10 combos, budget 80, final loss < initial loss"


def _run(check, *args) -> CheckResult:
    name = check.__name__.removeprefix("check_")
    try:
        return CheckResult(name, True, check(*args))
    except AssertionError as exc:
        return CheckResult(name, False, str(exc))


def check_report_quality(report: dict) -> list[CheckResult]:
    """The end-to-end gates on a report's mean metrics and sweep, where it has them."""
    results = []
    comparison = report.get("comparison", {})
    if "AE" in comparison and "AEFL" in comparison:
        means = [{k: s["mean"] for k, s in comparison[m]["stats"].items()} for m in ("AE", "AEFL")]
        results.append(_run(check_e2e, *means))
    if report.get("sweep"):
        results.append(_run(check_sweep, report["sweep"]))
    return results


CHECKS = (
    check_size_accounting, check_planner_figures, check_fedavg_properties, check_threshold_sweep,
    check_metric_identities, check_gradients, check_iforest_recovery,
)


def run_all_checks(report: dict | None = None) -> list[CheckResult]:
    results = [_run(check) for check in CHECKS]
    return results if report is None else results + check_report_quality(report)
