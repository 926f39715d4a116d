"""Exception hierarchy for the boltzxml toolchain."""

from __future__ import annotations


class BoltzXmlError(Exception):
    """Base class for all errors raised by this package."""


class GrammarError(BoltzXmlError):
    """A grammar could not be read: malformed XML, unknown or unsupported
    constructs, dangling references, recursion not guarded by an element."""

    def __init__(self, message, source=None, line=None, column=None):
        self.message = message
        self.source = source
        self.line = line
        self.column = column
        super().__init__(str(self))

    @classmethod
    def at(cls, message, source, node):
        """The error located at a pattern node's loc, (line, column) or None."""
        return cls(message, source, *(node.loc or (None, None)))

    def __str__(self):
        prefix = []
        if self.source:
            prefix.append(str(self.source))
        if self.line is not None:
            prefix.append(str(self.line))
            if self.column is not None:
                prefix.append(str(self.column))
        if prefix:
            return "%s: %s" % (":".join(prefix), self.message)
        return self.message


class CompileError(GrammarError):
    """A well-formed grammar has no sensible counting semantics, for example
    a repetition over a pattern that can match emptiness."""


class SystemFormatError(BoltzXmlError):
    """A system or oracle file does not follow the documented format."""


class IllFoundedSystemError(BoltzXmlError):
    """The equation system admits infinitely many objects of some finite
    size, so counting and sampling are meaningless."""


class SolverError(BoltzXmlError):
    pass


class DivergedError(SolverError):
    """Newton iteration did not converge at the requested point."""

    def __init__(self, x, reason, bracket=None):
        self.x = x
        self.reason = reason
        self.bracket = bracket
        msg = "Newton iteration diverged at x=%.17g: %s" % (x, reason)
        if bracket is not None:
            msg += " (estimated singularity in [%.17g, %.17g])" % bracket
        super().__init__(msg)


class NoFiniteSingularityError(SolverError):
    """The dichotomy found no divergence at or below its upper search bound."""

    def __init__(self, xmax):
        self.xmax = xmax
        super().__init__(
            "no divergence found at x=%.17g; the system has no finite "
            "singularity below that point, pass an explicit x instead" % xmax
        )


class OracleMismatchError(BoltzXmlError):
    """An oracle does not fit the equation system it is used with.

    reason says how; a remedy, when given, follows it in the message."""

    def __init__(self, reason, remedy=None):
        self.reason = reason
        super().__init__(reason if remedy is None else "%s; %s" % (reason, remedy))


class SamplingError(BoltzXmlError):
    pass


class CeilingExceededError(SamplingError):
    """A free generation run grew past the hard size ceiling."""

    def __init__(self, ceiling):
        self.ceiling = ceiling
        super().__init__("generation exceeded the hard size ceiling of %d" % ceiling)


class ExhaustedError(SamplingError):
    """No draw landed in the size window within the attempt budget."""

    def __init__(self, attempts, histogram):
        self.attempts = attempts
        self.histogram = dict(histogram)
        super().__init__(
            "no document fell in the size window after %d attempts" % attempts
        )


class MissingDatatypeError(SamplingError):
    def __init__(self, names):
        self.names = sorted(names)
        super().__init__(
            "no sampler registered for datatype(s): %s" % ", ".join(self.names)
        )


class EnumerationBoundError(BoltzXmlError):
    """Exhaustive enumeration would exceed the configured bound."""

    def __init__(self, count, bound):
        self.count = count
        self.bound = bound
        super().__init__(
            "enumeration would produce %d documents, above the bound %d"
            % (count, bound)
        )
