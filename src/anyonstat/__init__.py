"""Numerical toolkit for the computable content of planar spin-statistics:
covering-group algebra, Wigner cocycles, branch-tracked continuation into
the strip, cone-path homotopy, and the statistics-phase pipeline."""

from .minkowski import (J, METRIC, MomentumPoint, boost1,
                        j_reflect, minkowski_product, rotation, shell_point,
                        to_momentum)
from .covergroup import (CoverElement, PoincareElement, compose, identity,
                         inverse, j_conjugate, lift_boost, lift_boost1,
                         lift_rotation, project)
from .wigner import (cocycle, little_group_phase, standard_boost, u_pihalf,
                     u_plain, wigner_angle)
from .holo import (PowerBaseVanishes, RefinementLimit, SingularDeterminant,
                   StripPath, continue_along, continue_robust,
                   morera_residual, ode_continue)
from .conegeom import (ConePath, SpacelikeDirection, SpatialSector,
                       contains_direction, dual_sector, exchange_hypothesis,
                       in_wedge_class, path_equivalent, poincare_act_path)
from .repn import (QuadGrid, RepConfig, WaveFunction, act, casimir_residual,
                   generator, inner_product, pauli_lubanski)
from .spinstat import (PipelineReport, ToyModel, WaveMatrixFamily,
                       build_toy_model, extract_D, extract_statistics_phase,
                       run_pipeline)
from .suites import Report, SuiteConfig, run_suite

__version__ = "0.1.0"
