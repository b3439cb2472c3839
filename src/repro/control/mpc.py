"""The MPC resource controller (Algorithm 1 of the paper).

At the beginning of each control period ``k`` the controller:

1. feeds the newly observed demand and price vectors to its predictors,
2. forecasts both for the window ``[k+1, ..., k+W]``,
3. solves the DSPP over that window starting from the current state, and
4. applies only the first move ``u_{k|k}`` (eq. 2), discarding the rest.

Every solve runs on one persistent :class:`~repro.core.dspp.DSPPWorkspace`
held for the controller's lifetime: consecutive periods share the Ruiz
scaling and the KKT factorization (a vector-only ``update()``), and each
solve starts from the previous one's iterates.  Capacity swaps via
:meth:`MPCController.set_capacities` stay on this fast path; only a genuine
structure change (horizon override, SLA or weight change) rebuilds.  See
``docs/PERFORMANCE.md``.

The controller is deliberately ignorant of ground truth: everything it
knows arrives through :meth:`MPCController.step`'s observation arguments,
which makes it directly reusable inside the multi-provider game (where the
coordinator additionally swaps out the capacity vector between rounds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.sanitize as sanitize
from repro.contracts import check_shapes
from repro.core.dspp import DSPPSolution, DSPPWorkspace, solve_dspp
from repro.core.instance import DSPPInstance
from repro.prediction.base import Predictor
from repro.solvers.qp import QPSettings

__all__ = [
    "MPCConfig",
    "MPCStep",
    "MPCController",
    "NonFiniteObservationError",
]


class NonFiniteObservationError(ValueError):
    """A telemetry sample contained NaN/inf and could not be repaired.

    Raised by :meth:`MPCController.observe` in ``imputation="strict"``
    mode on any non-finite entry, and in ``imputation="carry_forward"``
    mode when there is no finite history to impute from (the very first
    observation arrived broken).
    """


@dataclass(frozen=True)
class MPCConfig:
    """Controller configuration.

    Attributes:
        window: prediction horizon ``W`` (>= 1).
        qp_settings: solver settings forwarded to each DSPP solve.
        slack_penalty: if set, each horizon solve uses the *elastic* DSPP
            (demand shortfall allowed at this per-unit cost).  This keeps
            the controller solvable when forecasts exceed what capacity or
            ramping can serve, and lets it spread large ramps over several
            periods — the behaviour behind the paper's horizon-length
            studies (Figures 9 and 10).
        imputation: what to do with non-finite telemetry.  ``"strict"``
            (default) raises :class:`NonFiniteObservationError` at the
            period that saw the bad sample; ``"carry_forward"`` replaces
            each NaN/inf entry with the last finite value observed for
            that series and flags the repair on the resulting
            :class:`MPCStep` (``imputed_demand``/``imputed_prices``), so a
            single broken sample degrades one forecast instead of killing
            the loop.
    """

    window: int = 3
    qp_settings: QPSettings | None = None
    slack_penalty: float | None = None
    imputation: str = "strict"

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.slack_penalty is not None and self.slack_penalty <= 0:
            raise ValueError(
                f"slack_penalty must be positive, got {self.slack_penalty}"
            )
        if self.imputation not in ("strict", "carry_forward"):
            raise ValueError(
                f"imputation must be 'strict' or 'carry_forward', "
                f"got {self.imputation!r}"
            )


@dataclass(frozen=True)
class MPCStep:
    """Outcome of one control period.

    Attributes:
        period: zero-based control period index.
        applied_control: ``u_{k|k}``, shape ``(L, V)``.
        new_state: ``x_{k+1}``, shape ``(L, V)``.
        predicted_demand: the demand forecast used, shape ``(V, W)``.
        predicted_prices: the price forecast used, shape ``(L, W)``.
        solution: the full horizon solution (plans beyond the first move
            are informational only), or ``None`` for a held period (see
            :meth:`MPCController.hold`).
        held: ``True`` when no solve happened this period and the previous
            allocation was carried unchanged.
        imputed_demand: boolean mask over the ``V`` demand series whose
            observation was repaired by carry-forward imputation this
            period (``None``: nothing was imputed).
        imputed_prices: the same mask over the ``L`` price series.
    """

    period: int
    applied_control: np.ndarray
    new_state: np.ndarray
    predicted_demand: np.ndarray
    predicted_prices: np.ndarray
    solution: DSPPSolution | None
    held: bool = False
    imputed_demand: np.ndarray | None = None
    imputed_prices: np.ndarray | None = None


class MPCController:
    """Receding-horizon controller for one service provider.

    Args:
        instance: static problem data; its ``initial_state`` seeds the
            controller state.
        demand_predictor: forecaster over the ``V`` demand series.
        price_predictor: forecaster over the ``L`` price series.
        config: horizon and solver settings.

    Raises:
        ValueError: if predictor dimensions do not match the instance.
    """

    def __init__(
        self,
        instance: DSPPInstance,
        demand_predictor: Predictor,
        price_predictor: Predictor,
        config: MPCConfig | None = None,
    ) -> None:
        if demand_predictor.num_series != instance.num_locations:
            raise ValueError(
                f"demand predictor covers {demand_predictor.num_series} series, "
                f"instance has {instance.num_locations} locations"
            )
        if price_predictor.num_series != instance.num_datacenters:
            raise ValueError(
                f"price predictor covers {price_predictor.num_series} series, "
                f"instance has {instance.num_datacenters} data centers"
            )
        self.instance = instance
        self.demand_predictor = demand_predictor
        self.price_predictor = price_predictor
        self.config = config or MPCConfig()
        self._state = instance.initial_state.copy()
        self._period = 0
        self._workspace = DSPPWorkspace()
        # Last finite value seen per series (the carry-forward source) and
        # the imputation masks of the most recent observe(), consumed by
        # the next plan()/hold().
        self._last_finite_demand: np.ndarray | None = None
        self._last_finite_prices: np.ndarray | None = None
        self._imputed_demand: np.ndarray | None = None
        self._imputed_prices: np.ndarray | None = None

    @property
    def state(self) -> np.ndarray:
        """Current allocation ``x_k``, shape ``(L, V)`` (copy)."""
        return self._state.copy()

    @state.setter
    def state(self, state: np.ndarray) -> None:
        """Overwrite ``x_k`` only (e.g. servers lost to a failure); unlike
        :meth:`reset`, predictors and solver state carry on."""
        self._state = np.asarray(state, dtype=float).copy()

    @property
    def period(self) -> int:
        """Zero-based index of the next control period."""
        return self._period

    def set_capacities(self, capacities: np.ndarray) -> None:
        """Replace the capacity vector (the game coordinator's quota)."""
        self.instance = self.instance.with_capacities(np.asarray(capacities, dtype=float))

    def reset(self, state: np.ndarray | None = None) -> None:
        """Restart from ``state`` (default: the instance's initial state)."""
        self._state = (
            np.asarray(state, dtype=float).copy()
            if state is not None
            else self.instance.initial_state.copy()
        )
        self._period = 0
        self._last_finite_demand = None
        self._last_finite_prices = None
        self._imputed_demand = None
        self._imputed_prices = None
        # The structure fingerprint would survive a reset unchanged, but the
        # stored ADMM iterates belong to the abandoned run.
        self._workspace.invalidate()
        self.demand_predictor.reset()
        self.price_predictor.reset()

    @check_shapes("observed_demand:(V,)", "observed_prices:(L,)")
    def observe(
        self,
        observed_demand: np.ndarray,
        observed_prices: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feed one period's telemetry to the predictors (Algorithm 1 step 1).

        Splitting observation from planning lets a supervisor retry the
        *solve* (see :mod:`repro.service`) without double-feeding the
        predictor histories.

        Args:
            observed_demand: demand vector realized in the period just
                beginning, length ``V`` (the monitoring module's report).
            observed_prices: current per-server prices, length ``L``.

        Returns:
            The ``(demand, prices)`` actually recorded — identical to the
            inputs unless carry-forward imputation repaired entries.

        Raises:
            NonFiniteObservationError: on non-finite entries in ``strict``
                mode, or in ``carry_forward`` mode with no finite history.
        """
        demand = np.asarray(observed_demand, dtype=float).ravel()
        prices = np.asarray(observed_prices, dtype=float).ravel()
        demand_mask = ~np.isfinite(demand)
        prices_mask = ~np.isfinite(prices)
        self._imputed_demand = None
        self._imputed_prices = None
        if bool(demand_mask.any()) or bool(prices_mask.any()):
            # A NaN observation would silently poison the predictor
            # history and every later horizon; repair it (flagged) or fail
            # here, at the period that saw it.
            if self.config.imputation == "strict":
                # With the sanitizer armed this raises its located
                # SanitizeError; otherwise fall through to the typed raise.
                sanitize.check_finite(
                    "MPCController.step observations", demand, prices
                )
                raise NonFiniteObservationError(
                    f"non-finite observation at period {self._period}: "
                    f"{int(demand_mask.sum())} demand and "
                    f"{int(prices_mask.sum())} price entries"
                )
            if self._last_finite_demand is None or self._last_finite_prices is None:
                raise NonFiniteObservationError(
                    f"non-finite observation at period {self._period} with "
                    "no finite history to carry forward"
                )
            demand = np.where(demand_mask, self._last_finite_demand, demand)
            prices = np.where(prices_mask, self._last_finite_prices, prices)
            self._imputed_demand = demand_mask if demand_mask.any() else None
            self._imputed_prices = prices_mask if prices_mask.any() else None
        sanitize.check_finite("MPCController.step observations", demand, prices)
        self._last_finite_demand = demand.copy()
        self._last_finite_prices = prices.copy()
        self.demand_predictor.observe(demand)
        self.price_predictor.observe(prices)
        return demand, prices

    def _consume_imputation_flags(
        self,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        flags = (self._imputed_demand, self._imputed_prices)
        self._imputed_demand = None
        self._imputed_prices = None
        return flags

    def plan(self, horizon: int | None = None, *, cold: bool = False) -> MPCStep:
        """Forecast, solve the horizon DSPP on the persistent workspace
        and apply ``u_{k|k}``.

        Args:
            horizon: override of the window length for this step (used to
                clamp near the end of a finite run).
            cold: drop the persistent workspace's cached factorization and
                stored iterates before solving (a from-scratch
                re-factorization of the same problem).

        Returns:
            The :class:`MPCStep`; the controller's internal state advances
            to ``x_{k+1}``.

        Raises:
            DSPPInfeasibleError: if the forecast demand cannot be served.
        """
        window = horizon if horizon is not None else self.config.window
        if window < 1:
            raise ValueError(f"horizon must be >= 1, got {window}")
        predicted_demand = self.demand_predictor.predict(window)
        predicted_prices = self.price_predictor.predict(window)

        if cold:
            self._workspace.invalidate()

        # Prime the memoized structure key on the base instance (a no-op
        # after the first step) so every derived per-period copy inherits
        # it: the receding-horizon loop hashes the SLA/weight arrays once,
        # not once per period.
        self.instance.structure_key()
        solution = solve_dspp(
            self.instance.with_initial_state(self._state),
            predicted_demand,
            predicted_prices,
            settings=self.config.qp_settings,
            demand_slack_penalty=self.config.slack_penalty,
            workspace=self._workspace,
        )

        control = solution.first_control
        self._state = np.maximum(self._state + control, 0.0)
        imputed_demand, imputed_prices = self._consume_imputation_flags()
        step = MPCStep(
            period=self._period,
            applied_control=control,
            new_state=self._state.copy(),
            predicted_demand=predicted_demand,
            predicted_prices=predicted_prices,
            solution=solution,
            imputed_demand=imputed_demand,
            imputed_prices=imputed_prices,
        )
        self._period += 1
        return step

    def hold(self, horizon: int | None = None) -> MPCStep:
        """Advance one period without solving: keep the last allocation.

        The degradation ladder's terminal rung (see
        ``docs/OPERATIONS.md``): when every solve attempt failed, the
        previous placement is carried unchanged (``u_{k|k} = 0``) and the
        period still completes.  The unserved-demand slack this implies is
        the caller's to account (the service records it in the
        :class:`~repro.service.DegradationLog`).

        Args:
            horizon: window length used for the bookkeeping forecast
                (default: the configured window).

        Returns:
            An :class:`MPCStep` with ``held=True``, ``solution=None`` and
            a zero applied control.
        """
        window = horizon if horizon is not None else self.config.window
        if window < 1:
            raise ValueError(f"horizon must be >= 1, got {window}")
        predicted_demand = self.demand_predictor.predict(window)
        predicted_prices = self.price_predictor.predict(window)
        imputed_demand, imputed_prices = self._consume_imputation_flags()
        step = MPCStep(
            period=self._period,
            applied_control=np.zeros_like(self._state),
            new_state=self._state.copy(),
            predicted_demand=predicted_demand,
            predicted_prices=predicted_prices,
            solution=None,
            held=True,
            imputed_demand=imputed_demand,
            imputed_prices=imputed_prices,
        )
        self._period += 1
        return step

    @check_shapes("observed_demand:(V,)", "observed_prices:(L,)")
    def step(
        self,
        observed_demand: np.ndarray,
        observed_prices: np.ndarray,
        horizon: int | None = None,
    ) -> MPCStep:
        """Run one iteration of Algorithm 1 (observe, then plan).

        Args:
            observed_demand: demand vector realized in the period just
                beginning, length ``V`` (the monitoring module's report).
            observed_prices: current per-server prices, length ``L``.
            horizon: override of the window length for this step (used to
                clamp near the end of a finite run).

        Returns:
            The :class:`MPCStep`; the controller's internal state advances
            to ``x_{k+1}``.

        Raises:
            NonFiniteObservationError: on unrepairable non-finite telemetry.
            DSPPInfeasibleError: if the forecast demand cannot be served.
        """
        self.observe(observed_demand, observed_prices)
        return self.plan(horizon)
