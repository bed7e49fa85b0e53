"""Typed errors shared across the library.

Every precondition failure raises a subclass of TwistdetError so the CLI can
map domain problems to a single exit code without string matching. A document
that does not match its schema raises ValidationError, a ValueError. A failed
internal self-check raises InternalInvariantError, which is not a
TwistdetError: it reports broken arithmetic, not a bad input.
"""

from __future__ import annotations

import re


class TwistdetError(Exception):
    """Base class for all domain errors raised by this package."""


class RingMismatch(TwistdetError):
    """Operands live in different (or structurally unequal) rings."""


class NotAUnit(TwistdetError):
    """Inversion was requested for a non-unit coefficient or matrix."""


class AugmentationNotUnit(TwistdetError):
    """A series inverse needs the constant coefficient to be a unit."""


class AugmentationNotOne(TwistdetError):
    """The operation needs a series with constant coefficient exactly 1."""


class AugmentationNotIdentity(TwistdetError):
    """The operation needs a matrix whose constant part is the identity."""


class NotInvertible(TwistdetError):
    """A series matrix with non-invertible constant part cannot be inverted."""


class NeedsRationalCoefficients(TwistdetError):
    """Formal log/exp divide by integers; the coefficient ring must contain Q."""


class NeedsTrace(TwistdetError):
    """No usable rational-valued trace: none on the ring, or letters are twisted."""


class FlavorViolated(TwistdetError):
    """The pair (a, b) does not satisfy the requested generator flavor."""


class CommutationFailed(TwistdetError):
    """The transform parameter c does not commute with a as required."""


class NotInWOne(TwistdetError):
    """The Novikov element is not of the form 1 + (positive z-degree terms)."""


class LeadingCoeffNotUnit(TwistdetError):
    """A Novikov inverse needs the lowest-degree coefficient to be a unit."""


class WindowUnderflow(TwistdetError):
    """A Novikov operation needs more negative z-room than configured."""


class DimensionMismatch(TwistdetError):
    """Matrix shapes do not fit the requested operation."""


class ClassRegroupIncompatible(TwistdetError):
    """Plain conjugacy classes straddle twisted classes; regrouping undefined."""


class LiteralSyntaxError(TwistdetError):
    """A series or coefficient literal could not be parsed."""


class InternalInvariantError(RuntimeError):
    """An identity the arithmetic must satisfy failed on valid input."""


_PLAIN_KEY = re.compile(r"^[a-zA-Z][a-zA-Z0-9_]*$")


class ValidationError(ValueError):
    """A JSON document does not match its schema, or describes a ring that
    cannot be built.

    `path` holds the keys and indices from the document's root to the failing
    value; `json_path` spells it the way jsonschema does, e.g. `$.ring.order`.
    """

    def __init__(self, message: str, path=()):
        super().__init__(message)
        self.message = message
        self.path = tuple(path)

    def under(self, *keys) -> "ValidationError":
        """The same error for its document found at `keys` of a larger one."""
        return ValidationError(self.message, (*keys, *self.path))

    @property
    def json_path(self) -> str:
        out = "$"
        for elem in self.path:
            if isinstance(elem, int):
                out += f"[{elem}]"
            elif _PLAIN_KEY.match(elem):
                out += "." + elem
            else:
                out += "['" + elem.replace("\\", "\\\\").replace("'", "\\'") + "']"
        return out
