"""Slotted-time cooperation simulator: model, controllers, oracle, analysis."""

from .analysis import (
    DriftConstants,
    busy_period_moments,
    compute_d,
    drift_constants,
    frame_length_bounds,
    throughput_lower_bound,
)
from .controller import (
    FadeState,
    FadingModel,
    FrameDriftPenaltyPolicy,
    FrameRule,
    MultiUserDecision,
    solve_multiuser_frame,
    solve_p1_fading,
)
from .engine import (
    PolicySpec,
    RunMetrics,
    Scenario,
    derive_seed,
    run_episode,
    run_episodes,
    sweep_v,
)
from .model import (
    ModelParams,
    PowerSet,
    UnstableChainError,
    update_virtual_queue,
)
from .montecarlo import (
    arrival_counts,
    batch_mean_stderr,
    sample_busy_periods,
    sample_frames,
    sample_idle_periods,
)
from .oracle import (
    StationaryPolicy,
    StationarySimResult,
    grid_search,
    optimal_at_q,
    optimal_two_point,
    simulate_stationary,
)

__version__ = "0.1.0"
