"""obstaclesim: traversal of stochastic obstacle fields on geometric graphs.

Scenes are disk obstacles dropped on an 8-adjacency lattice (or any planar
network), each either a real blocker or a false alarm, with a Beta-distributed
sensor mark for its probability of being real. A navigating agent replans
shortest paths under current knowledge and pays to disambiguate obstacles it
would otherwise have to cross. The package provides the samplers (uniform,
Strauss, Matern cluster), the replanning traversal, a deterministic Monte
Carlo harness, and empirical stochastic-dominance checks.
"""

from .geometry import (
    GeometricGraph,
    build_lattice,
    index_edge_disks,
    lattice_vertex,
)
from .montecarlo import (
    ExperimentConfig,
    FalseOnly,
    MaternPlacement,
    Mixed,
    StraussPlacement,
    SweepCellError,
    SweepRecord,
    SummaryRow,
    TrueOnly,
    UniformPlacement,
    build_obstacles,
    build_scene,
    run_replication,
    run_sweep,
    stream_index,
    summarize,
)
from .ordering import (
    Ecdf,
    OrderingReport,
    coupled_composition_samples,
    dominates_st,
    ratio_sweep_samples,
    sensor_fidelity_samples,
)
from .pointproc import (
    MaternParams,
    RngStream,
    StraussParams,
    Window,
    count_close_pairs,
    sample_matern,
    sample_strauss,
    sample_uniform,
)
from .sensor import (
    Obstacles,
    SensorModel,
    assign_marks,
    beta_cdf,
)
from .traversal import (
    InfeasibleSceneError,
    Scene,
    TraversalResult,
    rd_traverse,
    shortest_path,
)

__version__ = "0.1.0"

__all__ = [
    "GeometricGraph",
    "build_lattice",
    "index_edge_disks",
    "lattice_vertex",
    "ExperimentConfig",
    "FalseOnly",
    "MaternPlacement",
    "Mixed",
    "StraussPlacement",
    "SweepCellError",
    "SweepRecord",
    "SummaryRow",
    "TrueOnly",
    "UniformPlacement",
    "build_obstacles",
    "build_scene",
    "run_replication",
    "run_sweep",
    "stream_index",
    "summarize",
    "Ecdf",
    "OrderingReport",
    "coupled_composition_samples",
    "dominates_st",
    "ratio_sweep_samples",
    "sensor_fidelity_samples",
    "MaternParams",
    "RngStream",
    "StraussParams",
    "Window",
    "count_close_pairs",
    "sample_matern",
    "sample_strauss",
    "sample_uniform",
    "Obstacles",
    "SensorModel",
    "assign_marks",
    "beta_cdf",
    "InfeasibleSceneError",
    "Scene",
    "TraversalResult",
    "rd_traverse",
    "shortest_path",
    "__version__",
]
