"""Power-loss and power-restore events (crash-consistency subsystem).

Real SSD robustness engineering is dominated by sudden power loss: all
volatile controller state (write buffer, cached mapping entries,
in-flight array operations) vanishes, while flash contents -- including
the out-of-band (lpn, version) tokens every programmed page carries --
survive.  This module defines the schedulable event pair and the
per-mount reports; the orchestration lives in
:mod:`repro.reliability.crash`, the recovery strategies in
:mod:`repro.reliability.recovery`.

A power loss is scheduled through a fault plan::

    plan = FaultPlan().power_loss(at_ns=5_000_000, off_ns=2_000_000)
    config.reliability.fault_plan = plan

The simulation then runs in segments: virtual time advances to the loss
instant, the device-side world is torn down, the restore event fires
``off_ns`` later, the configured recovery strategy rebuilds the mapping
(charging its mount time), and the host resumes against the remounted
device.  With no power loss scheduled, none of this machinery is armed
and runs are bit-identical to a simulator without it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PowerRestoreEvent:
    """Power returns at ``at_ns``; the device begins its mount sequence."""

    at_ns: int


@dataclass(frozen=True)
class PowerLossEvent:
    """Power is cut at ``at_ns``; volatile device state is destroyed.

    Always paired with the :class:`PowerRestoreEvent` that follows it --
    a loss without a restore would simply end the experiment.
    """

    at_ns: int
    restore: PowerRestoreEvent

    @property
    def off_ns(self) -> int:
        """Length of the outage (loss to power return, excluding mount)."""
        return self.restore.at_ns - self.at_ns


@dataclass
class MountReport:
    """What one recovery (one mount after one power loss) did and cost."""

    #: Recovery strategy name (``RecoveryStrategy`` value).
    strategy: str
    #: Virtual time of the power loss.
    loss_ns: int
    #: Virtual time power returned (mount starts here).
    restore_ns: int
    #: Total mount duration: scan/replay plus mount-time cleanup.
    mount_time_ns: int
    #: Flash pages read while scanning (OOB scan: every programmed page;
    #: checkpoint+journal: the checkpoint pages).
    scanned_pages: int
    #: Journal records replayed (checkpoint+journal only).
    replayed_records: int
    #: Writes destroyed by the loss: volatile buffered pages plus torn
    #: (partially-programmed) in-flight pages.  Never includes an
    #: acknowledged write -- the durability audit enforces that.
    lost_writes: int
    #: Pages left partially programmed by in-flight programs.
    torn_pages: int
    #: Logical mapping entries recovered at mount.
    recovered_entries: int
    #: Fully-dead blocks erased during mount cleanup.
    cleanup_erases: int
    #: True when the recovered mapping is version-identical to the
    #: pre-crash durable (committed) mapping.  Always True -- a mismatch
    #: raises ``SanitizerError`` -- but kept on the report so tests and
    #: experiments can assert it explicitly.
    mapping_matches: bool = True

    @property
    def ready_ns(self) -> int:
        """Virtual time the device accepts IO again."""
        return self.restore_ns + self.mount_time_ns
