"""Two qubits in a common broadband squeezed vacuum reservoir.

Simulation and analysis of the dissipative entanglement dynamics: exact
and RK4 propagation of the single-Lindblad master equation, closed-form
solutions, four cross-validating concurrence routes, the
partial-transpose separability criterion, and detection of entanglement
sudden death and revival.
"""

from .model import (
    BasisTag,
    BathParams,
    DensityMatrix,
    InitialStateSpec,
    Liouvillian,
    build_liouvillian,
    change_basis,
    dfs_basis_vectors,
    dfs_unitary,
    initial_state,
    lindblad_operator,
    state_vector,
)
from .dynamics import (
    GeneralFormValidation,
    ExactPropagator,
    PropagatorSettings,
    Trajectory,
    closed_form_general,
    closed_form_vacuum,
    evolve_exact,
    evolve_rk4,
    walk_states,
)
from .entanglement import (
    ConcurrenceResult,
    PPTResult,
    concurrence_dfs_closed,
    concurrence_pure,
    concurrence_wootters,
    concurrence_xstate,
    dfs_closed_raw,
    partial_transpose,
    ppt_min_eigenvalue,
    ppt_min_eigenvalues,
    wootters_raw,
    xstate_raw,
)
from .events import (
    EventReport,
    SweepResult,
    detect_events,
    event_scan,
    find_existence_boundary,
    psi1_critical_eps,
    psi1_death_revival_times,
    psi2_touch_time,
    sweep,
)

__all__ = [
    "GeneralFormValidation",
    "BasisTag",
    "BathParams",
    "ConcurrenceResult",
    "DensityMatrix",
    "EventReport",
    "ExactPropagator",
    "InitialStateSpec",
    "Liouvillian",
    "PPTResult",
    "PropagatorSettings",
    "SweepResult",
    "Trajectory",
    "build_liouvillian",
    "change_basis",
    "closed_form_general",
    "closed_form_vacuum",
    "concurrence_dfs_closed",
    "concurrence_pure",
    "concurrence_wootters",
    "concurrence_xstate",
    "detect_events",
    "dfs_basis_vectors",
    "dfs_closed_raw",
    "dfs_unitary",
    "event_scan",
    "evolve_exact",
    "evolve_rk4",
    "find_existence_boundary",
    "initial_state",
    "lindblad_operator",
    "partial_transpose",
    "ppt_min_eigenvalue",
    "ppt_min_eigenvalues",
    "psi1_critical_eps",
    "psi1_death_revival_times",
    "psi2_touch_time",
    "state_vector",
    "sweep",
    "walk_states",
    "wootters_raw",
    "xstate_raw",
]

__version__ = "0.1.0"
