"""Exception hierarchy for the :mod:`repro` package."""


class ReproError(Exception):
    """Base class for every error raised by this package."""


class PauliError(ReproError):
    """Raised for malformed Pauli strings or invalid Pauli algebra."""


class CircuitError(ReproError):
    """Raised for invalid circuit construction or manipulation."""


class CliffordError(ReproError):
    """Raised when a gate outside the supported Clifford set is used."""


class SynthesisError(ReproError):
    """Raised when a circuit cannot be synthesized from its specification."""


class AbsorptionError(ReproError):
    """Raised when a Clifford tail cannot be absorbed as requested."""


class RoutingError(ReproError):
    """Raised when a circuit cannot be mapped to a coupling graph."""


class WorkloadError(ReproError):
    """Raised for invalid workload / benchmark specifications."""


class CompilerError(ReproError):
    """Raised for invalid pass-pipeline construction or execution."""


class InvalidProgramError(CompilerError):
    """Raised when a compile entry point receives an unusable program.

    Every entry point — :func:`repro.compile`, :func:`repro.compile_many`,
    and the service's ``POST /compile`` — performs the same up-front checks
    (non-empty program, at least one qubit) and raises this one class, so a
    malformed request fails with a clear message instead of whatever deep
    internal error would surface first.
    """


class WireFormatError(ReproError):
    """Raised for malformed or version-incompatible wire-format payloads."""


class CacheError(ReproError):
    """Raised for invalid artifact-cache keys or unusable cache state."""


class ServiceError(ReproError):
    """Raised by the service client for failed or undecodable HTTP exchanges.

    ``status`` carries the HTTP status code when one was received (``None``
    for transport-level failures); ``retry_after`` the server's suggested
    backoff in seconds when the response carried one (load shedding and open
    circuit breakers send it so well-behaved clients pace their retries).
    """

    def __init__(
        self,
        message: str,
        status: int | None = None,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class FaultInjectedError(ReproError):
    """Raised by an armed :mod:`repro.service.faults` rule of kind ``error``.

    Never raised in production configurations — a fault site only fires when
    the process was explicitly armed via ``REPRO_FAULTS`` or a
    ``POST /fault`` debug request (itself gated behind ``--enable-faults``).
    Deliberately *not* a :class:`ServiceError` subclass: injected failures
    must surface as server-side 5xx, not client-side 4xx validation errors.
    """


class DeadlineExceededError(ReproError):
    """Raised when a request's ``X-Repro-Deadline`` budget ran out.

    The serving stack checks the deadline at every queue boundary (HTTP
    dispatch, scheduler batch execution, fleet forwarding) and abandons the
    remaining work — the client has already given up, so finishing the
    compile would only burn capacity the live requests need.  Maps to HTTP
    504.
    """


class OverloadedError(ReproError):
    """Raised when a bounded service queue sheds a request instead of queuing.

    Unbounded queues turn overload into unbounded latency; the scheduler and
    server instead cap their depth and fail fast with this error (HTTP 503
    plus a ``Retry-After`` hint) so clients can back off and retry.
    ``retry_after`` is the suggested pause in seconds.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after
