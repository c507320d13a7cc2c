"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ReproError):
    """A device or system was constructed with inconsistent parameters."""


class PendingFlushError(ConfigurationError, RuntimeError):
    """A serving result was read before the flush that resolves it ran.

    Doubles as a :class:`RuntimeError` (reading an unresolved future is
    a sequencing mistake, not a configuration one) while staying inside
    the :class:`ReproError` hierarchy via :class:`ConfigurationError`,
    so both ``except RuntimeError`` and the package-wide handler catch
    it.  The message names the pending flush and the call that
    resolves it.
    """


class ClusterSaturatedError(ReproError, RuntimeError):
    """A cluster shed a request at admission control.

    Raised by :class:`repro.api.PhotonicCluster` when ``max_pending``
    requests are already queued across the fleet and the new request's
    priority does not grant it bypass.  Doubles as a
    :class:`RuntimeError` (saturation is a load condition, not a
    configuration one) while staying catchable via the package-wide
    :class:`ReproError` handler.  The message names the limit and the
    calls that drain the backlog.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A request was shed because its deadline expired before (or
    during) the flush that would have resolved it.

    Raised when reading a :class:`~repro.api.Future` submitted with
    ``deadline=`` that the serving path dropped: either the deadline
    was already expired at submit time, or the modelled completion time
    of its coalesced batch fell past the deadline at flush time.  Shed
    requests are counted as ``deadline_misses`` on
    :class:`~repro.api.RunReport`.  Doubles as a :class:`TimeoutError`
    (a deadline miss is a timeout, not a configuration mistake) while
    staying catchable via the package-wide :class:`ReproError` handler.
    The message names the request and its deadline.
    """


class UnitConversionError(ConfigurationError, ValueError):
    """A unit-conversion helper was handed a value outside its domain
    (non-positive power to dBm, zero wavelength, ...).

    Doubles as a :class:`ValueError` (the argument's *value* is the
    problem, matching what the converters historically raised) while
    staying inside the :class:`ReproError` hierarchy via
    :class:`ConfigurationError`, so both ``except ValueError`` and the
    package-wide handler catch it.
    """


class ProgramStoreError(ReproError):
    """A persisted compiled-program store entry could not be used.

    Base class for every failure mode of
    :class:`repro.elastic.ProgramStore`: callers that warm-start
    opportunistically catch this one type and fall back to a cold
    compile, while tests can assert the precise subclass.  A store
    file the file system refuses to write raises this type itself.
    """


class CorruptProgramError(ProgramStoreError, ValueError):
    """A store entry is damaged or inconsistent (checksum mismatch,
    unparsable header, missing arrays, digest mismatch, unknown format
    version), or exists but cannot be read.

    Doubles as a :class:`ValueError` (the persisted *value* is the
    problem) while staying catchable via the package-wide
    :class:`ReproError` handler.  The message names the entry and what
    failed to parse; the fix is to delete the entry and recompile.
    """


class StaleProgramError(ProgramStoreError, RuntimeError):
    """A store entry was compiled under a different calibration epoch
    than the core asking for it.

    Raised by :meth:`repro.elastic.ProgramStore.load` when the
    persisted ``calibration_epoch`` does not match the requesting
    core's current epoch: the entry's drift-compensation snapshot no
    longer describes the hardware trims, so restoring it would not be
    bit-for-bit.  Doubles as a :class:`RuntimeError` (staleness is a
    lifecycle condition, not a configuration one).  Serving paths catch
    it and recompile; the fresh program overwrites the stale entry.
    """


class PhotonicsError(ReproError):
    """A photonic component or network was used incorrectly."""


class PortConnectionError(PhotonicsError):
    """A photonic netlist connection is invalid (unknown port, double
    drive, or a cycle in a feed-forward network)."""


class SimulationError(ReproError):
    """A simulation engine failed or was configured inconsistently."""


class ConversionError(ReproError):
    """An ADC produced no valid code (e.g. no thresholding block fired)."""


class MappingError(ReproError):
    """A workload could not be mapped onto the tensor core."""
