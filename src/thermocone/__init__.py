"""Thermomajorisation, thermal cones and catalysable regions.

A numpy library for energy-incoherent states: beta-ordering and
thermomajorisation curves, future/past/incomparable classification, the
regions a strict catalyst can unlock together with catalyst dimension and
population bounds, Monte-Carlo region volumes, and two applications
(entanglement generation for two thermal qubits, optimal catalytic cooling).
"""

from .core import (
    EPS_CMP,
    EPS_NEG,
    EPS_SLOPE,
    EPS_SUM,
    MAX_ENUM_DIM,
    Dist,
    EnergySpectrum,
    QuasiDist,
    Relation,
    SlopeVector,
    TMCurve,
    beta_order,
    compare,
    curve_dominates,
    curve_eval,
    gibbs_vector,
    tensor,
    thermo_majorizes,
    tm_curve,
)
from .embedding import (
    OracleReport,
    RationalGibbs,
    classical_majorizes,
    embed,
    oracle_check,
    oracle_report,
    rationalize,
)
from .cones import ConeVertices, future_cone_vertices, vertex_for_order
from .catalysis import (
    DimBound,
    EmptyIntervalError,
    NotIncomparableError,
    QubitWindow,
    TangentVector,
    alpha_free_energy_check,
    c_plus_vertex,
    c_plus_vertices,
    catalysable_future_member,
    catalysable_past_member,
    catalytic_condition,
    dim_bound,
    in_region_Ti,
    project_simplex,
    qubit_catalyst_spectrum,
    qubit_window,
    windows_from_bounds,
    renyi_divergence,
    search_qubit_catalyst,
    tangent_bound_curve,
    tangent_curve,
    tangent_vector,
    verify_catalyst,
)
from .volume import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    VolumeEstimate,
    exact_area_d3,
    isovolume_grid,
    mc_volume,
    region_masks,
    sample_simplex,
)
from .entanglement import (
    TwoQubitConfig,
    in_CN,
    in_TN,
    p_star,
    p_star_star,
    unitary_entanglable,
    volume_ratio_CN_TN,
)
from .cooling import (
    CoolingReport,
    NoRootError,
    critical_hot_betas,
    heat_exchange,
    m_index,
    optimal_cooling,
)

__version__ = "0.1.0"
