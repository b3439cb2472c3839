"""The paper's primary contribution: the DSPP linear-quadratic program.

* :mod:`repro.core.instance` — immutable problem data (Section IV's model).
* :mod:`repro.core.matrices` — vectorization into the stacked LQ form of
  Section IV-D (builds the sparse QP the solver consumes).
* :mod:`repro.core.dspp` — exact finite-horizon solve of the DSPP.
* :mod:`repro.core.static` — the single-period placement LP (baselines).
* :mod:`repro.core.integer` — integer allocations by rounding + repair
  (the paper's future-work item, with measured integrality gaps).
* :mod:`repro.core.absolute` — the L1-reconfiguration-penalty ablation.
* :mod:`repro.core.costs` — the cost functionals ``H_k`` (eq. 3), ``G_k``
  (eq. 4) and ``J``.
* :mod:`repro.core.state` — the state equation (eq. 2) and trajectory
  containers.
"""

from repro.core.instance import DSPPInstance
from repro.core.matrices import (
    QPBlockView,
    StackedQP,
    StackedQPStructure,
    build_qp_structure,
    build_qp_vectors,
    build_stacked_qp,
    structure_fingerprint,
)
from repro.core.dspp import DSPPSolution, DSPPWorkspace, solve_dspp
from repro.core.static import StaticPlacement, solve_static_placement
from repro.core.integer import IntegerDSPPSolution, solve_dspp_integer
from repro.core.absolute import L1DSPPSolution, solve_dspp_l1
from repro.core.costs import allocation_cost, reconfiguration_cost, total_cost, CostBreakdown
from repro.core.state import Trajectory, roll_out_states

__all__ = [
    "DSPPInstance",
    "StackedQP",
    "StackedQPStructure",
    "build_qp_structure",
    "build_qp_vectors",
    "build_stacked_qp",
    "structure_fingerprint",
    "QPBlockView",
    "DSPPSolution",
    "DSPPWorkspace",
    "solve_dspp",
    "StaticPlacement",
    "solve_static_placement",
    "IntegerDSPPSolution",
    "solve_dspp_integer",
    "L1DSPPSolution",
    "solve_dspp_l1",
    "allocation_cost",
    "reconfiguration_cost",
    "total_cost",
    "CostBreakdown",
    "Trajectory",
    "roll_out_states",
]
