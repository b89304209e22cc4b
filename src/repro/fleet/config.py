"""Fleet configuration: one declarative description of a federated fleet.

:class:`FleetConfig` extends :class:`~repro.api.config.EngineConfig` — every
engine-level knob (objective, implementation, packing flags, incremental
reconciliation) applies fleet-wide as the per-cell default — and adds the
federation surface: how many cells, how nodes and applications partition
onto them, which spillover policy covers cross-cell residual demand, and
per-cell overrides for heterogeneous fleets (e.g. one cell on the golden
reference stages, another on a fairness objective).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.api.config import EngineConfig
from repro.traces.fleet import default_fleet_cells

from repro.fleet.partition import resolve_partitioner


@dataclass(frozen=True)
class SupervisorConfig:
    """How a :class:`~repro.fleet.pool.ShardPool` supervises its workers.

    Parameters
    ----------
    round_timeout:
        Per-reply deadline in seconds.  A worker that has not produced its
        reply within the deadline is treated as hung: it is killed and the
        shard goes through the restart path.  ``None`` disables the
        deadline (a hung worker then blocks forever, as an unsupervised
        pool would).
    max_restarts:
        Consecutive failures tolerated per shard before its cells are
        redistributed to surviving workers (graceful degradation).  The
        counter resets on every successful reply, so only crash *loops*
        degrade a shard.
    backoff_base / backoff_cap:
        Exponential restart backoff: attempt ``k`` sleeps
        ``min(cap, base * 2**(k-1))`` scaled by seeded jitter in
        ``[0.5, 1.5)``.  ``base=0`` disables sleeping entirely (tests).
    seed:
        Seed for the jitter RNG.  Backoff affects only wall-clock timing,
        never results, so supervised runs stay byte-identical regardless.
    """

    round_timeout: float | None = 300.0
    max_restarts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.round_timeout is not None and self.round_timeout <= 0:
            raise ValueError("round_timeout must be positive (or None)")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be >= 0")


def default_cell_names(cells: int) -> tuple[str, ...]:
    """``cell-0`` … ``cell-N-1`` — the naming the whole fleet layer uses.

    Delegates to :func:`repro.traces.fleet.default_fleet_cells`, so fleets
    and the scenarios generated for them can never disagree on the default
    cell naming.
    """
    return tuple(default_fleet_cells(cells))


#: EngineConfig field names a per-cell override may set.
_ENGINE_FIELDS = tuple(f.name for f in fields(EngineConfig))


@dataclass
class FleetConfig(EngineConfig):
    """Declarative description of a :class:`~repro.fleet.engine.FleetEngine`.

    Parameters (on top of every :class:`EngineConfig` field)
    ----------
    cells:
        Number of failure domains the fleet federates.
    cell_names:
        Explicit cell names; defaults to ``cell-0`` … ``cell-N-1``.
    partitioner:
        How nodes/applications map onto cells when a fleet is built from one
        whole-cluster state — a :class:`~repro.fleet.partition.Partitioner`
        instance or one of ``"hash"`` / ``"rack"``.
    partition_seed:
        Seed for the stable partition hash (byte-identical mapping across
        runs and processes for the same seed).
    spillover:
        Cross-cell capacity policy — a
        :class:`~repro.fleet.spillover.SpilloverPolicy` instance, ``"packed"``
        (stock: fleet-level plan→pack over a cell-as-node state) or
        ``"none"`` (cells are strictly isolated).
    workers:
        Default worker count for :meth:`FleetEngine.reconcile` and
        :class:`~repro.fleet.replay.FleetReplayer`; ``1`` = serial.
        Parallel rounds run on persistent worker processes and are
        byte-identical to serial ones.
    cell_overrides:
        Mapping of cell name (or index) to a dict of :class:`EngineConfig`
        field overrides for that cell only.
    supervise:
        Whether shard workers run under the
        self-healing supervisor (dead/hung/corrupt workers restart with
        backoff, crash loops degrade to surviving workers).  ``False``
        restores fail-fast semantics: any worker fault raises
        :class:`~repro.fleet.pool.ShardFailure` with state untouched.
    shard_timeout:
        Supervisor per-reply deadline in seconds (see
        :class:`SupervisorConfig.round_timeout`).
    max_shard_restarts:
        Consecutive restarts per shard before degradation (see
        :class:`SupervisorConfig.max_restarts`).
    shard_backoff:
        Base of the exponential restart backoff, seconds; ``0`` disables
        sleeping between restarts.
    """

    cells: int = 1
    cell_names: tuple[str, ...] | None = None
    partitioner: object = "hash"
    partition_seed: int = 0
    spillover: object = "packed"
    workers: int = 1
    cell_overrides: dict = field(default_factory=dict)
    supervise: bool = True
    shard_timeout: float = 300.0
    max_shard_restarts: int = 3
    shard_backoff: float = 0.05

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.cells < 1:
            raise ValueError("cells must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive")
        if self.max_shard_restarts < 0:
            raise ValueError("max_shard_restarts must be >= 0")
        if self.shard_backoff < 0:
            raise ValueError("shard_backoff must be >= 0")
        if self.cell_names is not None:
            self.cell_names = tuple(self.cell_names)
            if len(self.cell_names) != self.cells:
                raise ValueError(
                    f"cell_names has {len(self.cell_names)} entries for {self.cells} cells"
                )
            if len(set(self.cell_names)) != self.cells:
                raise ValueError("cell_names must be unique")
        # Fail fast on bad specs (instances pass through untouched).
        resolve_partitioner(self.partitioner, seed=self.partition_seed)
        for key, overrides in self.cell_overrides.items():
            unknown = set(overrides) - set(_ENGINE_FIELDS)
            if unknown:
                raise ValueError(
                    f"cell_overrides[{key!r}] names unknown EngineConfig "
                    f"fields: {sorted(unknown)}"
                )

    def supervisor_config(self) -> SupervisorConfig | None:
        """The shard-supervision policy this config describes (None = off)."""
        if not self.supervise:
            return None
        return SupervisorConfig(
            round_timeout=self.shard_timeout,
            max_restarts=self.max_shard_restarts,
            backoff_base=self.shard_backoff,
            seed=self.partition_seed,
        )

    def resolved_cell_names(self) -> tuple[str, ...]:
        """The cell names this config describes."""
        if self.cell_names is not None:
            return self.cell_names
        return default_cell_names(self.cells)

    def resolved_partitioner(self):
        return resolve_partitioner(self.partitioner, seed=self.partition_seed)

    def engine_config_for(self, cell: str | int) -> EngineConfig:
        """The per-cell :class:`EngineConfig`: fleet defaults + overrides.

        ``cell`` may be a cell name or index; overrides keyed either way
        apply (name wins when both are present).
        """
        base = {name: getattr(self, name) for name in _ENGINE_FIELDS}
        names = self.resolved_cell_names()
        if isinstance(cell, int):
            index, name = cell, names[cell]
        else:
            name = cell
            index = names.index(cell)
        for key in (index, name):
            overrides = self.cell_overrides.get(key)
            if overrides:
                base.update(overrides)
        return EngineConfig(**base)
