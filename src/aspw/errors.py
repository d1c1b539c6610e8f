"""Exception hierarchy shared by all aspw modules.

Every failure that a caller can provoke with bad input raises a subclass of
AspwError carrying a readable message.  Internal consistency violations
(states the algorithms should make unreachable) raise InternalCheckError
so they are never confused with user errors.
"""


class AspwError(Exception):
    """Base class for all aspw errors."""


class ParseError(AspwError):
    """Malformed text input."""


# field construction and element handling

class NotPrime(AspwError):
    pass


class ReducibleModulus(AspwError):
    pass


class NotASubfield(AspwError):
    pass


class IncompatibleContexts(AspwError):
    pass


class FieldTooLarge(AspwError):
    pass


# univariate polynomial and rational function layer

class ZeroPolynomial(AspwError):
    pass


class NotIrreducible(AspwError):
    pass


class PoleAtPlace(AspwError):
    pass


# additive polynomial layer

class RootsNotInBaseField(AspwError):
    pass


class DependentGenerators(AspwError):
    pass


class NotASubgroup(AspwError):
    pass


class ZeroScale(AspwError):
    pass


# extension analysis layer

class DependentSubextensions(AspwError):
    pass


class SingularSystem(AspwError):
    pass


class NotAFixedField(AspwError):
    pass


class DegreeOverflow(AspwError):
    pass


# Witt vector layer

class LengthCapExceeded(AspwError):
    pass


class LengthMismatch(AspwError):
    pass


class RingMismatch(AspwError):
    pass


class SingularWittSystem(AspwError):
    pass


class IdentityFailure(AspwError):
    pass


class NotReduced(AspwError):
    pass


class InternalCheckError(AssertionError):
    """An internal invariant failed; indicates a bug, not bad input."""
