"""Post-processing and evaluation toolkit for 6D object detections.

A detection is a class, a 2D box, a quaternion rotation, and a metric
camera-frame translation. The package covers the pipeline between a
detector's raw output and a score: lateral-position recovery from box
centers, confidence thresholding with sweep search, multi-model max
ensembling, ignore-region filtering, threshold-ladder mAP with pose error
statistics, reference losses with gradient checks, and seeded synthetic
scenes with an independent brute-force oracle.
"""

from .geometry import (
    BBox2D,
    BehindCameraError,
    CameraIntrinsics,
    EulerAngles,
    GimbalLockWarning,
    NonPositiveDepthError,
    Pose,
    Quaternion,
    Translation,
    ZeroNormError,
    angular_error,
    backproject,
    bbox_center,
    euler_from_quat,
    extent_bbox,
    iou_2d,
    project,
    quat_conjugate,
    quat_from_euler,
    quat_multiply,
    quat_normalize,
)
from .losses import (
    DimensionMismatchError,
    LossWeights,
    NotOneHotError,
    cls_cross_entropy,
    cls_cross_entropy_grad,
    finite_diff_check,
    quat_mse,
    quat_mse_grad,
    total_loss,
    trans_mse,
    trans_mse_grad,
)
from .metrics import (
    DEFAULT_LADDER,
    EvaluationReport,
    NoClassesError,
    ThresholdLadder,
    average_precision,
    load_ladder,
    parse_ladder,
    mean_average_precision,
)
from .postprocess import (
    EmptyEnsembleError,
    EnsembleConfig,
    ThresholdSweep,
    apply_confidence_threshold,
    ensemble_max,
    filter_ignore,
    recover_xy,
    recover_xy_records,
    sweep_threshold,
)
from .records import (
    Annotation,
    Detection,
    IgnoreRegions,
    ImageRecord,
    MissingBoxError,
    NonFiniteError,
    ParseError,
    RecoveryOverflowError,
    ValidationError,
    load_camera,
    load_csv_compat,
    load_ground_truth,
    load_ignore,
    load_predictions,
    parse_csv_compat,
    parse_ground_truth,
    parse_ignore,
    parse_predictions,
    save_camera,
    save_ground_truth,
    save_ignore,
    save_predictions,
    serialize_ground_truth,
    serialize_ignore,
    serialize_predictions,
)
from .synth import (
    CAR_EXTENT,
    MAX_ORACLE_DETECTIONS,
    NoiseSpec,
    SceneSpec,
    TooLargeError,
    corrupt_xy,
    generate_scene,
    oracle_map,
    perturb,
)

__version__ = "0.1.0"
