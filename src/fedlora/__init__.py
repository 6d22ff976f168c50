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
    GridSpec,
    ThresholdResult,
    classify,
    grid_search_iforest,
    initial_threshold,
    reconstruction_errors,
    select_threshold,
    squared_deviations,
)
from .autoencoder import (
    ArchSpec,
    AutoencoderModel,
    TrainConfig,
    build_autoencoder,
    deserialize,
    forward,
    get_weights,
    mse,
    param_count,
    serialize,
    serialized_param_bytes,
    set_weights,
    train,
)
from .data import (
    GenConfig,
    RecordSet,
    clean,
    decode_ttn_uplink,
    encode_ttn_uplink,
    generate_synthetic,
    ingest_csv,
    ingest_ttn_json,
    select_features,
    write_csv,
)
from .federated import (
    ClientState,
    FLSchedule,
    GlobalModel,
    evaluate_global,
    evaluate_per_client,
    fedavg,
    init_global,
    make_clients,
    run_round,
    run_schedule,
    tune_client_thresholds,
)
from .frame import FEATURE_NAMES, FeatureFrame, Machine, concat_frames
from .iforest import IForest, fit_iforest, iforest_classify, iforest_scores
from .labeling import (
    DEFAULT_RANGES,
    LabelVector,
    RangeSpec,
    aggregate_labels,
    iqr_bounds,
    label_by_iqr,
    label_by_range,
)
from .lorawan import (
    PROFILES,
    LoRaWANProfile,
    PlanRequest,
    fragmentation_plan,
    messages_required,
    plan_table,
    training_hours,
)
from .metrics import (
    ConfusionMatrix,
    MetricsSummary,
    accuracy,
    all_metrics,
    confusion,
    f1,
    precision,
    summarize_runs,
    tnr,
    tpr,
)
from .preprocess import (
    SplitSpec,
    Standardizer,
    apply_standardizer,
    fit_standardizer,
    stratified_split,
)
