"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.  Every
class here survives ``pickle``: a sweep cell's exception crosses from its
pool worker to the parent.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphStructureError(ReproError):
    """An operation received a graph violating a structural requirement.

    Examples: non-contiguous port labels, a disconnected graph handed to an
    algorithm that requires connectivity, or a multigraph where a simple
    graph is expected.
    """


class PortError(GraphStructureError):
    """A port number is out of range or does not exist at a node."""


class MapError(ReproError):
    """A robot's private map is inconsistent with an attempted operation.

    Raised e.g. when navigating a map path through an unexplored port or
    when a map exceeds ``n`` nodes (which honest robots treat as proof of
    Byzantine interference, per the paper's round-budget argument,
    footnote 11).
    """


class SimulationError(ReproError):
    """The simulator detected an illegal action or inconsistent state."""


class ProtocolViolation(SimulationError):
    """An honest robot program attempted something the model forbids.

    Honest programs must play by the rules (only Byzantine strategies may
    deviate); tripping this exception in a test indicates a bug in an
    honest program, never legitimate adversarial behaviour.
    """


class RoundLimitExceeded(SimulationError):
    """A simulation ran past its configured safety round budget.

    Every entry point takes an explicit or derived ``max_rounds``; hitting
    it means the algorithm failed to terminate within its theoretical
    bound (times a safety factor) and is reported as a failure rather than
    hanging the test suite.
    """


class SweepFaultError(ReproError):
    """A sweep cell exhausted its retry budget under strict execution.

    Raised by the plan executor only with ``strict=True``; the default
    executor quarantines such cells as structured failure records
    (``success=False, failed=True``) and keeps the sweep alive.  Carries
    the failing cell's content key and last error in its message.
    """


class ConfigurationError(ReproError):
    """Invalid experiment configuration (e.g. f out of range, bad IDs)."""


class ValidationError(ConfigurationError):
    """Untrusted input failed validation; names the offending field.

    Raised by the scenario parsers (``Scenario.from_dict``,
    ``ScenarioGrid.from_dicts``) on unknown keys, wrong types, or
    out-of-range values.  ``field`` carries a dotted path into the
    payload (``"graph"``, ``"scenarios[3].f"``) so API layers — the
    serve subsystem maps these to 400 responses — can tell clients
    exactly which part of their JSON to fix.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        #: The bare message without the field prefix (so wrappers can
        #: re-attribute the same reason to a longer path).
        self.reason = message

    def __reduce__(self):
        # The default rebuilds from ``args``, the one formatted message,
        # which this constructor does not take.
        return type(self), (self.field, self.reason)


class ImpossibleInstance(ConfigurationError):
    """The requested instance is provably unsolvable (Theorem 8 regime)."""
