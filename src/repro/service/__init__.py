"""Fault-tolerant resident placement service.

Wraps the paper's control loop in three robustness layers: versioned,
checksummed checkpoints with atomic writes and loud corruption fallback
(:mod:`repro.service.checkpoint`), a solver degradation ladder
warm → cold → hold with a structured event log
(:mod:`repro.service.ladder`), and seeded deterministic fault injection
(:mod:`repro.service.faults`).  :class:`PlacementService` glues them to
the monitoring/controller/router/metrics loop; ``python -m repro serve``
is the operational entry point (see ``docs/OPERATIONS.md``).
"""

from repro.service.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointNotFoundError,
    CheckpointVersionError,
    checkpoint_path,
    list_checkpoints,
    load_checkpoint,
    load_latest,
    write_checkpoint,
)
from repro.service.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    corrupt_checkpoint_file,
    make_fault_plan,
)
from repro.service.ladder import (
    LADDER_RUNGS,
    DegradationEvent,
    DegradationLog,
    LadderConfig,
)
from repro.service.service import PlacementService, ServiceConfig, ServiceResult

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointNotFoundError",
    "CheckpointVersionError",
    "DegradationEvent",
    "DegradationLog",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LADDER_RUNGS",
    "LadderConfig",
    "PlacementService",
    "ServiceConfig",
    "ServiceResult",
    "checkpoint_path",
    "corrupt_checkpoint_file",
    "list_checkpoints",
    "load_checkpoint",
    "load_latest",
    "make_fault_plan",
    "write_checkpoint",
]
