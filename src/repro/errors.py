"""Exception hierarchy for the VLSI-processor reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch the whole library with one ``except`` clause while still
being able to discriminate the architectural layer that failed.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CapacityError",
    "RoutingError",
    "ChannelAllocationError",
    "TopologyError",
    "RegionError",
    "StateTransitionError",
    "AllocationConflictError",
    "DefectError",
    "FaultInjectionError",
    "RetryExhaustedError",
    "StreamFormatError",
    "SimulationError",
    "PlannerError",
    "ServiceError",
    "AdmissionError",
    "QuotaError",
    "ProtocolError",
    "OwnershipError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An object/datapath configuration request is malformed or impossible."""


class CapacityError(ReproError):
    """A datapath or working set exceeds the capacity ``C`` of the array.

    The paper (section 2.5) requires streaming datapaths to be no larger
    than the stack capacity, since streaming forbids swapping out part of
    the configured datapath.
    """


class RoutingError(ReproError):
    """A route could not be established on the on-chip network."""


class ChannelAllocationError(ReproError):
    """The dynamic CSD network ran out of channels for a chaining request."""


class TopologyError(ReproError):
    """A fabric/topology construction or query is invalid."""


class RegionError(TopologyError):
    """A requested region of clusters is unusable (disconnected, occupied,
    not contiguous in the folded linear order, ...)."""


class StateTransitionError(ReproError):
    """An illegal processor-lifecycle transition was attempted.

    Legal transitions follow Figure 6(e): release -> inactive -> active
    <-> sleep, and active/inactive -> release.
    """


class AllocationConflictError(ReproError):
    """A wormhole reconfiguration hit a reservation flag held by another
    in-flight scaling operation (section 3.3)."""


class DefectError(ReproError):
    """A defective resource was used, or defect handling failed."""


class FaultInjectionError(DefectError):
    """An injected fault (segment, switch, link, or flit) corrupted a
    protocol step.  Raised by the fault hooks in the reconfiguration
    paths; the :mod:`repro.faults.recovery` layer treats it as
    retryable."""


class RetryExhaustedError(DefectError):
    """Bounded retry-with-backoff gave up: the fault persisted through
    every allowed attempt.  Carries the per-attempt history so campaign
    reports can tell transient-survived from permanently-degraded."""

    def __init__(
        self, message: str, attempts: int = 0, backoff_cycles: int = 0
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.backoff_cycles = backoff_cycles


class StreamFormatError(ReproError):
    """A global configuration data stream element is malformed."""


class SimulationError(ReproError):
    """A simulator reached an inconsistent state (deadlock, livelock,
    exhausted cycle budget)."""


class PlannerError(ReproError):
    """A reconfiguration planner was asked for an impossible plan (unknown
    mode, demand that no feasible schedule satisfies, or a plan executed
    against a fabric that no longer matches its snapshot)."""


class ServiceError(ReproError):
    """Base class for the fabric-as-a-service layer (repro.service)."""


class AdmissionError(ServiceError):
    """Admission control refused a tenant: the die has no free shard of
    the requested scale, the requested shard slot overlaps a resident
    tenant, or the tenant cap is reached."""


class QuotaError(ServiceError):
    """A tenant's request would exceed its admitted quota (clusters,
    processors, or mailbox slots)."""


class ProtocolError(ServiceError):
    """A service request frame is malformed: bad length prefix, invalid
    JSON, or a message missing the required envelope fields."""


class OwnershipError(ServiceError):
    """A request named a tenant admitted on another live connection: a
    tenant answers only to the connection whose ``hello`` admitted it."""
