"""Simulation of dephasing and amplitude-damping dynamics on slit-encoded
photonic qudit pairs: sign-flip dephasing channels, frame-schedule films,
quantum-trajectory unraveling, the Sagnac no-jump filter, conditional
interference patterns, and concurrence estimation from coincidence counts.
"""
from .channels import DephasingChannel, apply_channel, uniform_dephasing_channel
from .dynamics import (
    AMPLITUDE,
    POPULATION,
    DampingModel,
    TrajectoryConfig,
    integrate_master,
    run_trajectories,
)
from .experiment import (
    CountsTable,
    SlitStatePrep,
    anti_correlated_block,
    apply_sagnac,
    concurrence_uncertainty,
    populations,
    prepare_state,
    reconstruct_state,
)
from .film import FilmSchedule, NonRepresentableP, compile_film, effective_channel, mask_phases
from .optics import (
    DegenerateScanError,
    FitResult,
    OpticalGeometry,
    PatternScan,
    fit_p,
    fringe_period,
    pattern_intensity,
    synthesize_scan,
    x_pi,
)
from .qcore import (
    DensityMatrix,
    PureBipartiteState,
    i_concurrence,
    trace_distance,
)

__version__ = "0.1.0"
