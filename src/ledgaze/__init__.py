"""LED-only gaze estimation pipeline with a synthetic eye/LED-ring simulator."""

from .core import (
    ADC_MAX,
    CalibrationError,
    CalibrationSet,
    ConfigError,
    DegenerateInputError,
    DimensionError,
    DisplayGeometry,
    EstimationError,
    GazeEstimate,
    InsufficientDataError,
    LedGazeError,
    ScreenPoint,
    SensorFrame,
    WireError,
    angular_error,
)
from .kernels import MeasureSpec, canberra, cosine, manhattan, minkowski, rbf
from .regress import GprModel, SvrModel, grid_search_sigma
from .calib import CalibrationGridSpec, aggregate_point, run_calibration, schedule_targets
from .sigproc import IirFilter, SignalChain, adapt_exposure
from .eyesim import (
    EyeSimulator,
    GazeScript,
    LedLayout,
    OpticsModel,
    ScriptEvent,
    SessionLog,
    SimConfig,
    SubjectProfile,
    run_script,
    sense,
)
from .session import (
    SessionConfig,
    read_session_log,
    run_benchmark_session,
    write_session_log,
)
from .evaluate import (
    AccuracyReport,
    compare_estimators,
    evaluate_accuracy,
    run_scenarios,
    run_task_session,
    sweep,
)

__version__ = "0.1.0"
