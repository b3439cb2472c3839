"""Model Predictive Control layer (Section V, Algorithm 1).

* :mod:`repro.control.horizon` — horizon bookkeeping helpers.
* :mod:`repro.control.mpc` — the receding-horizon controller: predict
  demand/prices over the window, solve the DSPP, apply only ``u_{k|k}``.
* :mod:`repro.control.loop` — the closed-loop period kernel every loop
  runs on, and the closed-loop simulation of the controller against
  realized demand/price trajectories, with full cost and SLA accounting.
"""

from repro.control.horizon import effective_horizon, forecast_window
from repro.control.mpc import MPCConfig, MPCController, MPCStep
from repro.control.loop import ClosedLoop, ClosedLoopResult, run_closed_loop
from repro.control.integer_mpc import IntegerMPCController
from repro.control.tuning import WindowSelection, select_window

__all__ = [
    "effective_horizon",
    "forecast_window",
    "MPCConfig",
    "MPCController",
    "MPCStep",
    "ClosedLoop",
    "ClosedLoopResult",
    "run_closed_loop",
    "IntegerMPCController",
    "WindowSelection",
    "select_window",
]
