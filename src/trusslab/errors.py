"""Exception hierarchy shared by all trusslab modules."""

from __future__ import annotations


class TrussLabError(Exception):
    """Base class for all trusslab errors."""


class SemanticError(TrussLabError):
    """A structure fails a semantic requirement (an axiom, a hypothesis, a
    precondition); the command line exits 1 on these and 2 on every other
    error."""


class InputError(TrussLabError):
    """Malformed input data (bad JSON shape, out-of-range entries, unknown kind)."""


class GroupValidationError(TrussLabError):
    """A Cayley table failed a group axiom; ``witness`` locates the violation."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotLatinSquare(GroupValidationError):
    pass


class NotAssociative(GroupValidationError):
    pass


class NoIdentityAtZero(GroupValidationError):
    pass


class CarrierMismatch(InputError):
    """Operands live on different carrier groups."""


class GroupMismatch(TrussLabError):
    """Structures compared across distinct carrier groups."""


class MissingComponent(InputError):
    """An algebra object lacks a component its kind requires."""


class NotVerified(SemanticError):
    """Operation requires an object that already passed check()."""


class VerificationFailed(SemanticError):
    """check() found a failing axiom; ``report`` is the first failing LawReport."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotIdempotent(SemanticError):
    pass


class NotEndomorphism(SemanticError):
    pass


class SigmaNotIdempotentEndo(SemanticError):
    """The unary map must be an idempotent group endomorphism here."""


class SigmaDoesNotFixZero(SemanticError):
    pass


class DotNotDistributive(SemanticError):
    pass


class DotNotColumnConstant(SemanticError):
    """The second operation must depend only on its second argument."""


class HypothesisFailed(SemanticError):
    """A named transform hypothesis does not hold; ``flag`` says which one."""

    def __init__(self, flag: str, message: str = ""):
        super().__init__(message or f"hypothesis failed: {flag}")
        self.flag = flag


class NotAnIdeal(SemanticError):
    pass


class PreconditionFailed(SemanticError):
    pass


class CarrierTooLarge(TrussLabError):
    """Requested exhaustive computation exceeds the configured size cap."""
