"""Adapters that present a :class:`~repro.api.engine.PhoenixEngine` through
the repository's pre-engine surfaces.

:class:`SchemeAdapter` satisfies AdaptLab's ``ResilienceScheme`` protocol
(``respond(state) -> (new_state, planning_seconds)`` plus a ``name``), so an
engine drops into the failure-sweep harness, the replay driver and every
Figure-7-style comparison without touching them.  The stock Phoenix and LP
schemes in :mod:`repro.adaptlab.baselines` are themselves ``SchemeAdapter``
subclasses since the engine redesign.
"""

from __future__ import annotations

from repro.cluster.state import ClusterState

from repro.api.engine import PhoenixEngine


class SchemeAdapter:
    """Adapt an engine to AdaptLab's resilience-scheme protocol.

    The adapter is deliberately paper-thin: ``respond`` is the engine's
    ``respond``, so results are byte-identical to driving the engine
    directly, and identical to the pre-engine hand-wired schemes (enforced
    by the equivalence tests).
    """

    def __init__(self, engine: PhoenixEngine, name: str | None = None) -> None:
        if not isinstance(engine, PhoenixEngine):
            raise TypeError(
                f"{type(self).__name__} needs a PhoenixEngine, got "
                f"{type(engine).__name__} (pass engine=api.engine(...))"
            )
        self.engine = engine
        self.name = name if name is not None else engine.name

    def respond(self, state: ClusterState) -> tuple[ClusterState, float]:
        """Return (enacted target state, planning seconds); ``state`` untouched."""
        return self.engine.respond(state)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, engine={self.engine!r})"
