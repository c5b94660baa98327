"""Slotted-time cooperation simulator: model, controllers, oracle, analysis."""

from .analysis import (
    ChainSolution,
    DriftConstants,
    busy_period_moments,
    compute_d,
    drift_constants,
    frame_length_bounds,
    steady_state,
    throughput_lower_bound,
)
from .baselines import (
    AlwaysCoopPolicy,
    CounterPolicy,
    NoCoopPolicy,
    budget_gate,
)
from .controller import (
    FadeState,
    FadingModel,
    FrameDriftPenaltyPolicy,
    FrameRule,
    MultiUserDecision,
    admit,
    solve_multiuser_frame,
    solve_p1_fading,
)
from .engine import (
    PolicySpec,
    RunMetrics,
    Scenario,
    build_policy,
    derive_seed,
    run_episode,
    sweep_v,
)
from .model import (
    ModelParams,
    PowerSet,
    UnstableChainError,
    step_pu_queue,
    step_su_queue,
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
