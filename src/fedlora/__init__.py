"""fedlora: federated anomaly detection for LoRaWAN-connected machinery.

A desk-scale simulator and library covering the full loop: telemetry
ingestion or calibrated synthetic generation, range- and IQR-based
labeling, standardization and stratified splits, a dense autoencoder
with Adam training, an isolation-forest baseline, sample-weighted
federated averaging across per-machine clients, and a LoRaWAN message
and airtime budget planner.
"""

__version__ = "0.1.0"

from .anomaly import (
    classify,
    confusion_by_machine,
    initial_threshold,
    reconstruction_errors,
    select_threshold,
    thresholds_by_machine,
)
from .autoencoder import ArchSpec, TrainConfig, build_autoencoder, param_count, train
from .data import GenConfig, clean, generate_synthetic, select_features
from .federated import FLSchedule, make_clients, run_schedule
from .frame import concat_frames
from .labeling import DEFAULT_RANGES, label_by_iqr, label_by_range
from .lorawan import (
    PROFILES,
    fragmentation_plan,
    messages_required,
    plan_table,
    training_hours,
)
from .metrics import all_metrics, confusion
from .preprocess import SplitSpec, apply_standardizer, fit_standardizer, stratified_split
