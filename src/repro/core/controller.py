"""Phoenix controller: monitor the cluster, plan, schedule and execute.

Since the engine redesign the controller is a *thin loop* over
:meth:`repro.api.engine.PhoenixEngine.reconcile`: it keeps the per-round
history and the run loop, while observation, failure detection, planning and
execution live in the engine — the same code path AdaptLab schemes and the
kubesim/chaos glue use.  It mirrors the Phoenix agent described in §4.2/§5:
the agent polls the cluster state on a fixed interval, detects node failures
or recoveries, and pushes a new target state when anything changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.cluster.state import ClusterState
from repro.core.plan import Action, ActivationPlan, SchedulePlan
from repro.core.scheduler import apply_actions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports core)
    from repro.api.engine import PhoenixEngine


class ClusterBackend(Protocol):
    """What Phoenix needs from a cluster scheduler integration."""

    def observe(self) -> ClusterState:
        """Return a snapshot of the current cluster state."""
        ...

    def execute(self, actions: list[Action]) -> None:
        """Apply a list of actions (delete / migrate / start) to the cluster."""
        ...


@dataclass
class ReconcileReport:
    """What happened during one controller reconciliation round."""

    triggered: bool
    failed_nodes: list[str] = field(default_factory=list)
    recovered_nodes: list[str] = field(default_factory=list)
    plan: ActivationPlan | None = None
    schedule: SchedulePlan | None = None
    planning_seconds: float = 0.0
    actions_executed: int = 0


class PhoenixController:
    """Automated resilience management loop over a :class:`PhoenixEngine`.

    Parameters
    ----------
    backend:
        The cluster integration to observe and act on (anything
        :func:`repro.api.engine.backend_for` accepts).
    engine:
        The fully configured engine every round runs through.
    monitor_interval:
        Seconds between state observations (15 s in the paper's deployment;
        purely informational here — callers drive the loop explicitly or via
        :meth:`run` with a simulated clock).
    """

    def __init__(
        self,
        backend: ClusterBackend,
        *,
        engine: "PhoenixEngine",
        monitor_interval: float = 15.0,
    ) -> None:
        if monitor_interval <= 0:
            raise ValueError("monitor_interval must be positive")
        self.backend = backend
        self.engine = engine
        self.monitor_interval = monitor_interval
        self.history: list[ReconcileReport] = []

    # -- single round ------------------------------------------------------------
    def reconcile(self, force: bool = False) -> ReconcileReport:
        """Observe, detect changes, and (if anything changed) plan + execute."""
        report = self.engine.reconcile(self.backend, force=force)
        self.history.append(report)
        return report

    # -- continuous operation -------------------------------------------------------
    def run(self, rounds: int) -> list[ReconcileReport]:
        """Run ``rounds`` reconciliation rounds back to back.

        Real deployments sleep ``monitor_interval`` between rounds; simulated
        environments advance their own clock, so no sleeping happens here.
        """
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        return [self.reconcile() for _ in range(rounds)]

    def reset(self) -> None:
        """Forget detection state and history (used when re-running scenarios)."""
        self.engine.reset()
        self.history.clear()


class StateBackend:
    """A trivial backend over a bare :class:`ClusterState`.

    AdaptLab uses this when action latencies do not matter: actions are
    applied to the state instantaneously through
    :func:`repro.core.scheduler.apply_actions` — the same code path the
    engine's default executor uses.
    """

    def __init__(self, state: ClusterState) -> None:
        self.state = state

    def observe(self) -> ClusterState:
        return self.state

    def execute(self, actions: list[Action]) -> None:
        apply_actions(self.state, actions)
