"""Exception hierarchy shared across the simulator."""


class EpitraceError(Exception):
    """Base class for all simulator errors."""


class ValidationError(EpitraceError):
    """A domain value violates its invariants."""


class DuplicateRecordError(EpitraceError):
    """Two proximity records share the same (station, phone, minute) triple."""


class ConfigurationError(EpitraceError):
    """Scenario configuration is inconsistent or infeasible."""


class EncryptionError(EpitraceError):
    """Encryption could not be performed."""


class DecryptionError(EpitraceError):
    """Ciphertext could not be authenticated or decrypted."""


class ParameterError(EpitraceError):
    """Invalid threshold-cryptography or erasure-coding parameters."""


class ReconstructionError(EpitraceError):
    """Secret shares are inconsistent and cannot be combined."""


class AuthorizationError(EpitraceError):
    """Operation attempted without a sufficient quorum certificate or capability."""


class StateError(EpitraceError):
    """The federation's state gate refused an operation; raised as such for a state change to the state the system is already in."""


class LockedError(StateError):
    """The system is PASSIVE, so the federation admits no data access: no fetch, capability, vault read or write."""


class UnavailableError(EpitraceError):
    """Too few correct storage nodes responded to serve the request."""


class IntegrityError(EpitraceError):
    """Recovered data does not match its recorded digest."""


class NoEvidenceError(EpitraceError):
    """A scoring request carried no qualifying contact windows."""


class ResolutionError(EpitraceError):
    """A station code could not be resolved against the provider registry."""


class FramingError(EpitraceError):
    """A wire message is malformed or truncated."""


class HelperError(EpitraceError):
    """A forked helper process exited without reporting an error, or cut an item short; the message names its exit status.

    An error the helper reports is raised as itself, not as this.
    """
