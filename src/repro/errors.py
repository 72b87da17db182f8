"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
genuine programming errors (``TypeError`` etc.) propagate.

Every subclass carries a **stable string code** (``code``, ``E_*``):
machine-readable identity that survives message rewording, surfaced in
``--json`` outputs and in the campaign gateway's status records so
clients can switch on the *kind* of failure without parsing prose.
Codes are frozen once shipped -- renaming one is a breaking API change
-- and :func:`error_codes` enumerates them so a test can pin the full
taxonomy.
"""

from __future__ import annotations

from typing import Dict, Type


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""

    #: Stable machine-readable identity; every subclass overrides this.
    code = "E_REPRO"


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event simulation kernel."""

    code = "E_SIMULATION"


class DeadlockError(SimulationError):
    """The event queue drained while processes were still waiting.

    The message lists the stuck processes and what each one was waiting on,
    which is usually enough to diagnose a missing signal or an unsatisfiable
    ``taskwait``.
    """

    code = "E_DEADLOCK"


class ProcessError(SimulationError):
    """A simulated process raised an exception; the original is chained."""

    code = "E_PROCESS"


class WatchdogTimeout(SimulationError):
    """A watchdog deadline elapsed with the simulation still busy.

    Raised by :meth:`~repro.runtime.runtime.OpenMPRuntime.parallel` when
    ``RuntimeConfig.watchdog_us`` is set and the parallel region has not
    drained its event queue by the deadline -- the simulated analogue of a
    measurement run killed by a batch-system time limit.  The message
    names the pending work so a stuck task is diagnosable.
    """

    code = "E_WATCHDOG_TIMEOUT"


class WallClockTimeout(ReproError):
    """A wall-clock deadline elapsed while a run was still executing.

    The complement of :class:`WatchdogTimeout`: the virtual-time
    watchdog catches a *simulated* task that never finishes, but a
    kernel stuck in host Python without advancing virtual time (an
    accidental busy loop) never trips it.  Supervised execution
    (:mod:`repro.supervisor`) enforces ``RuntimeConfig.wall_timeout_s``
    in the worker process via ``SIGALRM`` -- and, as a backstop, kills
    the worker from the parent -- raising or reporting this error.
    """

    code = "E_WALL_CLOCK_TIMEOUT"


class CampaignInterrupted(ReproError):
    """Ctrl-C arrived mid-campaign; the completed cells are preserved.

    Raised instead of letting a bare ``KeyboardInterrupt`` discard every
    finished cell: ``results`` holds the cells that completed before the
    interrupt, so callers (the CLI) can print the partial table and exit
    with status 130.
    """

    code = "E_CAMPAIGN_INTERRUPTED"

    def __init__(self, message: str, results=()):
        super().__init__(message)
        self.results = list(results)


class MemoryPressureStop(ReproError):
    """The resource governor reached ladder level L4 (controlled stop).

    Raised from a task-creation scheduling point when measurement memory
    pressure exceeds the configured stop watermark (or the hard watermark
    with ``on_pressure="stop"``).  Unlike a real OOM kill the profile
    built so far is intact: the tolerant runner's salvage path catches
    this like any other :class:`ReproError` and flushes a partial profile
    whose :class:`~repro.profiling.salvage.SalvageReport` carries the
    :class:`~repro.governor.PressureIncident` history.
    """

    code = "E_MEMORY_PRESSURE_STOP"


class AdmissionRejected(ReproError):
    """The admission controller refused new work (``reject`` policy).

    Raised by :meth:`repro.fabric.AdmissionController.submit` when the
    pending queue is above its high watermark (or a per-tag quota is
    exhausted) and the policy says overload should fail fast at the
    submitter instead of growing the queue without bound.  ``tag`` names
    the quota that refused, when one did.
    """

    code = "E_ADMISSION_REJECTED"

    def __init__(self, message: str, tag=None):
        super().__init__(message)
        self.tag = tag


class JournalVersionError(ReproError):
    """A supervisor journal was written by an incompatible format.

    Raised by :func:`repro.supervisor.load_journal` when the journal's
    ``meta`` header declares a schema version newer than this build
    understands, so ``--resume`` fails with a clear message instead of a
    ``KeyError`` halfway through replaying records it cannot interpret.
    """

    code = "E_JOURNAL_VERSION"

    def __init__(self, found, supported):
        self.found = found
        self.supported = supported
        super().__init__(
            f"journal schema version {found!r} is newer than this build "
            f"supports (<= {supported}); re-run with a matching version "
            f"or start a fresh journal"
        )


class FaultInjectionError(ReproError):
    """An injected fault fired (task-body exception from a FaultPlan).

    Deliberately raised by the fault-injection framework inside simulated
    task bodies; in strict mode it propagates like any application error,
    in lenient mode the salvage pipeline converts it into a partial
    profile plus a :class:`~repro.profiling.salvage.SalvageReport`.
    """

    code = "E_FAULT_INJECTION"


class StreamRepairError(ReproError):
    """repair_stream() received input it cannot even partially recover."""

    code = "E_STREAM_REPAIR"


class RuntimeModelError(ReproError):
    """Misuse of the simulated OpenMP runtime API.

    Examples: yielding a barrier from an explicit task, spawning a task
    outside a parallel region, or re-using a consumed task handle.
    """

    code = "E_RUNTIME_MODEL"


class InstrumentationError(ReproError):
    """The instrumentation layer received an inconsistent event sequence."""

    code = "E_INSTRUMENTATION"


class SubstrateError(ReproError):
    """Misuse of the measurement-substrate machinery.

    Examples: requesting an unregistered substrate name, registering a
    duplicate name, or attaching two substrates with the same name to one
    :class:`~repro.substrates.manager.SubstrateManager`.  Failures *inside*
    a substrate's event callbacks are not wrapped in this -- the manager
    either propagates them (essential substrates) or quarantines the
    substrate and records the incident (graceful degradation).
    """

    code = "E_SUBSTRATE"


class ProfileFormatError(ReproError, ValueError):
    """An exported profile uses a format version this build cannot read.

    Raised by :func:`repro.cube.export.profile_from_dict` instead of a
    bare ``ValueError`` so the profile archive can surface stale entries
    cleanly.  ``found`` is the version in the data (possibly ``None``),
    ``supported`` the one this build writes and reads.  Derives from
    ``ValueError`` as well for backwards compatibility with callers that
    caught the old exception.
    """

    code = "E_PROFILE_FORMAT"

    def __init__(self, found, supported):
        self.found = found
        self.supported = supported
        super().__init__(
            f"unsupported profile format {found!r} "
            f"(this build supports version {supported})"
        )


class ArchiveError(ReproError):
    """The profile archive is missing, inconsistent, or misused.

    Examples: dereferencing an unknown run id or content hash, a content
    object whose bytes no longer match their sha256 name, or asking for
    a baseline the index cannot satisfy.  Format-version mismatches when
    *loading* an archived profile raise :class:`ProfileFormatError`
    instead, so callers can distinguish "corrupt archive" from "old but
    intact archive".
    """

    code = "E_ARCHIVE"


class ArchiveWarning(UserWarning):
    """The archive answered, but something about the query was fishy.

    Emitted (via :mod:`warnings`) rather than raised: e.g. a baseline
    group whose archived runs mix configuration fingerprints, where the
    query layer silently aggregating them would blend incomparable
    measurements into one baseline.
    """


class RecordingError(ReproError):
    """A recorded event stream is structurally invalid.

    Raised by the :mod:`repro.recorder` codec when record payloads are
    malformed (truncated varints, unknown record kinds, references to
    undefined region ids) and by the replay engine when a stream lacks
    the ``init`` record replay needs.  Torn *tails* are not errors --
    chunk recovery truncates those silently -- so this surfacing means
    corruption inside a CRC-valid chunk or misuse of the codec.
    """

    code = "E_RECORDING"


class ReplayDivergence(ReproError):
    """Replaying a recorded stream did not reproduce the live profile.

    Carries the structured :class:`~repro.recorder.replay.DivergenceReport`
    as ``report``: expected/actual content hashes plus a bounded diff of
    the canonical profile dictionaries.  A divergence on a complete
    stream means silent corruption or nondeterminism somewhere between
    the event stream and the cube -- exactly the class of bug that
    otherwise ships wrong numbers without a sound.
    """

    code = "E_REPLAY_DIVERGENCE"

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ProfileError(ReproError):
    """The profiler detected a violation of its invariants.

    The classic (non task-aware) profiling algorithm raises this when an
    event stream breaks the enter/exit nesting condition -- exactly the
    failure mode the paper's Section IV-B1 describes for task programs.
    """

    code = "E_PROFILE"


class EventOrderError(ProfileError):
    """Enter/exit events are not properly nested (Fig. 2 of the paper)."""

    code = "E_EVENT_ORDER"


class ValidationError(ReproError):
    """An event stream failed structural validation."""

    code = "E_VALIDATION"


class ArchiveLockTimeout(ArchiveError):
    """Acquiring the archive index lock exceeded its timeout.

    Raised by the index-writing :class:`repro.archive.ArchiveStore`
    operations (``put``, ``tag``, ``gc``) and by ``fsck`` when the store
    was built with ``lock_timeout_s`` and the advisory flock stayed held
    past the deadline.  Without a timeout a wedged lock holder would
    block forever -- in lease-based execution that means a worker hangs
    past its lease expiry and a reclaiming peer re-runs the work it is
    still holding the lock for.  Failing loudly here keeps lock waits
    shorter than lease lifetimes.
    """

    code = "E_ARCHIVE_LOCK_TIMEOUT"


class LedgerVersionError(ReproError):
    """A gateway ledger was written by an incompatible (newer) format.

    The service-layer twin of :class:`JournalVersionError`: recovery
    against a ledger whose ``meta`` header declares a schema version
    newer than this build refuses up front instead of misreading
    transition records it predates.
    """

    code = "E_LEDGER_VERSION"

    def __init__(self, found, supported):
        self.found = found
        self.supported = supported
        super().__init__(
            f"ledger schema version {found!r} is newer than this build "
            f"supports (<= {supported}); upgrade, or point the gateway "
            f"at a fresh home directory"
        )


class CampaignStateError(ReproError):
    """An illegal campaign state-machine transition was requested.

    The gateway's lifecycle is a fixed graph (``submitted -> admitted ->
    leased -> running -> {archived, failed, cancelled, expired}`` plus
    the reclaim edges back to ``admitted``); any request that would step
    outside it -- cancelling an already-terminal campaign, executing one
    that was never leased -- raises this instead of corrupting the
    ledger with an unreplayable edge.
    """

    code = "E_CAMPAIGN_STATE"

    def __init__(self, message: str, campaign_id=None, from_state=None,
                 to_state=None):
        super().__init__(message)
        self.campaign_id = campaign_id
        self.from_state = from_state
        self.to_state = to_state


class LeaseExpired(ReproError):
    """A worker acted on a campaign whose lease it no longer holds.

    Leases are the mutual-exclusion primitive of the gateway: a worker
    that stalls past its lease expiry may find the campaign reclaimed
    and re-leased to a peer.  Acting anyway would double-run the work,
    so the stale holder gets this error instead.
    """

    code = "E_LEASE_EXPIRED"


class IdempotencyConflict(ReproError):
    """An idempotency key was reused with a *different* campaign spec.

    Resubmitting the same spec under the same key is the designed-for
    retry path (it returns the original campaign, never double-runs);
    the same key with different content is a client bug that silently
    dropping either spec would hide.
    """

    code = "E_IDEMPOTENCY_CONFLICT"

    def __init__(self, message: str, key=None, campaign_id=None):
        super().__init__(message)
        self.key = key
        self.campaign_id = campaign_id


class GatewayDraining(ReproError):
    """The gateway is shutting down and no longer admits new work.

    Raised by ``submit`` after a drain began (SIGTERM): leased work is
    being finished and everything else journaled resumable, so new
    submissions must go to another instance or wait for a restart.
    """

    code = "E_GATEWAY_DRAINING"


class UnknownCampaign(ReproError):
    """A campaign id (or idempotency key) the ledger has never seen."""

    code = "E_UNKNOWN_CAMPAIGN"


class CampaignExpired(ReproError):
    """A campaign's wall-clock deadline passed before it finished.

    Used as the structured ``error`` of the terminal ``expired`` state:
    whatever cells completed are archived, the rest were never started
    or were cancelled by the supervisor's deadline drain.
    """

    code = "E_CAMPAIGN_EXPIRED"


class CampaignFailed(ReproError):
    """A campaign ran to completion but some cells did not succeed.

    The gateway's terminal ``failed`` state for executed-but-unhealthy
    campaigns (as opposed to infrastructure refusals, which carry their
    own codes); the per-outcome cell counts ride alongside in the
    transition record.
    """

    code = "E_CAMPAIGN_FAILED"


# ----------------------------------------------------------------------
# Code registry
# ----------------------------------------------------------------------
def _error_classes() -> Dict[str, Type[ReproError]]:
    """Every :class:`ReproError` subclass currently defined, by name."""
    found: Dict[str, Type[ReproError]] = {"ReproError": ReproError}
    stack = [ReproError]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__name__ not in found:
                found[sub.__name__] = sub
                stack.append(sub)
    return found


def error_codes() -> Dict[str, str]:
    """Map of exception class name -> stable ``E_*`` code.

    The taxonomy test pins this mapping: new classes may be added, but
    an existing (name, code) pair never changes -- clients are allowed
    to switch on codes.
    """
    return {name: cls.code for name, cls in _error_classes().items()}


def error_payload(exc: BaseException) -> Dict[str, str]:
    """The JSON-able error record every ``--json`` surface emits.

    Non-:class:`ReproError` exceptions get the generic ``E_REPRO`` code
    (they are still reported, just without a finer classification).
    """
    code = getattr(exc, "code", None)
    if not isinstance(code, str) or not code.startswith("E_"):
        code = ReproError.code
    return {
        "code": code,
        "type": type(exc).__name__,
        "message": str(exc),
    }
