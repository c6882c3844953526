"""hopcav: stationary covariance, bipartite entanglement, teleportation
fidelity, and stability maps for two photon-hopping-coupled optomechanical
cavities driven by squeezed light."""

__version__ = "0.1.0"

from .dynamics import (
    QUADRATURE_LABELS,
    ReducedModel,
    build_diffusion,
    build_reduced,
    collective_drifts,
    figure_drift,
)
from .engine import (
    AxisSpec,
    BathSpec,
    PointResult,
    ResultRecord,
    SweepConfig,
    SweepResult,
    run_point,
    run_sweep,
    sweep_batches,
    write_csv,
)
from .errors import (
    ConfigError,
    ConventionError,
    ConvergenceFailureError,
    HopcavError,
    InvalidStateError,
    StabilityError,
    UnknownPresetError,
    UnphysicalBathError,
)
from .lyapunov import LyapunovSolution, is_hurwitz, solve_lyapunov
from .measures import (
    BipartitePair,
    EntanglementResult,
    extract_pair,
    fidelity_bound,
    log_negativity,
    partial_transpose,
    symplectic_eigenvalues,
    symplectic_form,
    teleportation_fidelity,
)
from .params import (
    Detuning,
    PhysicalParams,
    derive_coupling,
    drive_amplitude,
    drive_amps,
    laser_angular_freq,
    thermal_occupation,
)
from .presets import PRESET_NAMES, fig_preset
from .squeezed import (
    BathClass,
    DpoParams,
    SqueezedBath,
    classify_bath,
    dpo_spectra,
    ideal_correlation,
)
from .stability import StabilityReport, routh_hurwitz_reduced, stability_map, stability_point
from .steady_state import (
    SteadyState,
    effective_coupling,
    solve_fixed_detuning,
    solve_self_consistent,
)
