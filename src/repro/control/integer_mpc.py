"""MPC with integer server counts in the loop.

The paper's future-work section asks for controllers whose applied
allocations are integral (small data centers, whole VMs).  Solving a
mixed-integer QP per period is NP-hard; the practical scheme implemented
here keeps the *planning* continuous and integrizes only the *applied*
state each period, using the same round-up + capacity-repair logic as the
offline integer solver:

    plan (continuous QP) -> first move -> ceil -> capacity repair -> apply

Because the integer state is always >= the continuous plan's demand
requirement, SLA feasibility survives rounding; the quadratic
reconfiguration cost of the extra fraction is what the rounding pays,
measured by the ``test_ablation_integer`` bench at the horizon level and
by unit tests here at the loop level.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.control.mpc import MPCController, MPCStep
from repro.core.integer import round_repair

__all__ = ["IntegerMPCController"]


class IntegerMPCController(MPCController):
    """Drop-in MPC controller whose applied states are integers.

    Accepts the same constructor arguments as
    :class:`repro.control.mpc.MPCController`; only the applied move
    changes.  The controller's internal state (hence every subsequent
    plan's starting point) is the integer state.
    """

    def plan(self, *args: Any, **kwargs: Any) -> MPCStep:
        """Plan as :meth:`MPCController.plan`, then integrize the applied state.

        Returns:
            An :class:`MPCStep` whose ``new_state`` is integral and whose
            ``applied_control`` is the *realized* (integer) move.
        """
        previous_state = self._state.copy()
        step = super().plan(*args, **kwargs)

        # Integrize against the demand the plan was built for.
        planned_demand = step.predicted_demand[:, :1]  # (V, 1)
        integer_state = round_repair(
            self.instance, step.new_state[None], planned_demand
        )[0]
        self._state = integer_state
        return replace(
            step,
            applied_control=integer_state - previous_state,
            new_state=integer_state.copy(),
        )
