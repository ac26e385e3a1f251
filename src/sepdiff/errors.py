"""Error conditions raised across the package.

Every failure mode that callers are expected to branch on gets its own class;
messages name the violated condition and carry the offending numbers.
"""


class SepdiffError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SepdiffError):
    """Malformed or inconsistent run configuration."""


# --- kernel ---------------------------------------------------------------

class NotAProbabilityError(SepdiffError):
    """Kernel weights are not a strictly positive probability vector."""


class OriginMassError(SepdiffError):
    """Kernel places mass on the zero displacement."""


class ReducibleError(SepdiffError):
    """Kernel support does not generate the full integer lattice."""


class TorusSizeError(SepdiffError):
    """Torus too small for the kernel range (needs 2N > 2R)."""


# --- statespace -----------------------------------------------------------

class WrongCountError(SepdiffError):
    """Particle count K outside the torus, or a bitmask that does not hold
    the K - 1 environment particles of the state space."""


class OutOfRangeError(SepdiffError):
    """A value outside its domain: a density, a count, size or seed, a
    horizon, block scale or displacement, ``n_pairs`` or
    ``max_doublings``; an empty sweep; the origin asked for as an
    environment site; or a bitmask with sites past the torus."""


# --- generator ------------------------------------------------------------

class SizeCapError(SepdiffError):
    """State count or nonzero count beyond the configured cap."""


class NotConnectedError(SepdiffError):
    """Transition graph is not connected."""

    def __init__(self, message, n_components=None):
        super().__init__(message)
        self.n_components = n_components


# --- sobolev --------------------------------------------------------------

class NotConvergedError(SepdiffError):
    """Iterative solver failed to reach the requested tolerance."""


class NotMeanZeroError(SepdiffError):
    """Vector required to have zero mean does not."""


class PropertyViolatedError(SepdiffError):
    """A checked norm inequality failed; message carries the witness."""


# --- diffusion ------------------------------------------------------------

class NonPositiveDError(SepdiffError):
    """Diffusion form negative beyond tolerance (convention/assembly bug)."""


class SupportTooLargeError(SepdiffError):
    """Block or coarse-graining scale does not fit the torus (exceeds N)."""


# --- montecarlo -----------------------------------------------------------

class InconclusiveError(SepdiffError):
    """Sign arbitration could not separate the two conventions."""
