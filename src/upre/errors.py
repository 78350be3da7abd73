"""Exception types shared across the package.

The CLI maps these onto stable exit codes:

- ``ConfigError`` and ``InputError`` exit 2;
- ``OSError`` (not a package error) exits 3;
- ``VersionError`` exits 4;
- ``StateError`` exits 1, as do verification failures;
- any other ``UpreError`` (``ShapeError``, ``DomainError``,
  ``ContractError``) exits 5 with a one-line message: an internal check
  failed on input that passed validation.
"""


class UpreError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(UpreError, ValueError):
    """Operand shapes are incompatible."""


class DomainError(UpreError, ValueError):
    """Input outside a function's mathematical domain (zero vector, empty logits...)."""


class InputError(UpreError, ValueError):
    """Malformed caller input (unknown category, empty text, bad box...)."""


class ConfigError(UpreError, ValueError):
    """Invalid or inconsistent configuration."""


class StateError(UpreError, RuntimeError):
    """Operation attempted in an invalid state (missing grad, missing params...)."""


class ContractError(UpreError, RuntimeError):
    """An internal contract was violated (non-scalar objective, bad eps...)."""


class VersionError(UpreError, RuntimeError):
    """Serialized blob is corrupt or from an incompatible format version."""
