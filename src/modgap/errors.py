"""Shared exception types and the resource limits that raise GuardExceeded."""

from dataclasses import dataclass


class ModgapError(Exception):
    """Base class for all package-specific errors."""


class GuardExceeded(ModgapError):
    """A resource guard (modulus range, word count, dense size) was hit."""


@dataclass(frozen=True)
class Guards:
    """The four resource limits, each checked by one function.

    max_q bounds the modulus (`modgroup.get_group`), max_words the
    admissible words of one expansion (`symdyn.check_word_count`), contexts
    the outer-word tuples of decoupling (`decouple.outer_words`) and
    dense_oracle the group order of a dense Cayley matrix
    (`spectral.dense_conv_matrix`). These are the only defaults; the config's
    `guards` object overrides them.
    """

    max_q: int = 32
    max_words: int = 5_000_000
    contexts: int = 200_000
    dense_oracle: int = 2500


class InvalidElement(ModgapError, ValueError):
    """A matrix is not a valid element of SL2(Z/q)."""


class AdmissibilityError(ModgapError, ValueError):
    """A letter sequence violates the shift's transition rule."""


class DomainError(ModgapError, ValueError):
    """An evaluation point lies outside the relevant branch domain."""


class NonContractingError(ModgapError, ValueError):
    """A letter fails uniform contraction on its admissible domain."""


class EstimationError(ModgapError, RuntimeError):
    """A numerical estimator could not bracket or certify its target."""


class ModulusMismatch(ModgapError, ValueError):
    """Two measures live on groups of different moduli."""


class ConvergenceError(ModgapError, RuntimeError):
    """An iteration hit its cap; carries the best estimate so far."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(ModgapError, ValueError):
    """Invalid run configuration; carries field-level diagnostics."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
