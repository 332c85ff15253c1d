"""Exception hierarchy shared across the package."""


class StratisolveError(Exception):
    """Base class for all package errors."""


class InternalError(StratisolveError):
    """An invariant the algorithms guarantee was found broken: a bug, never
    an answer."""


# -- graph file / graph structure -------------------------------------------

class GraphSyntaxError(StratisolveError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateNameError(GraphSyntaxError):
    pass


class DanglingEdgeError(GraphSyntaxError):
    pass


class ZeroLabelError(GraphSyntaxError):
    pass


class BlackDegreeError(GraphSyntaxError):
    """Sum of |label| over the edges at a black vertex is below 3."""


class DisconnectedError(GraphSyntaxError):
    pass


class UnknownVertexError(StratisolveError):
    pass


# -- words and presentations --------------------------------------------------

class WordSyntaxError(StratisolveError):
    pass


class UnknownGeneratorError(StratisolveError):
    pass


class TreeEdgeStableError(WordSyntaxError):
    """A stable-letter atom t.<edge> was used for a tree edge."""


# -- solving ------------------------------------------------------------------

class UnknownLetterError(StratisolveError):
    """A handle word uses a letter the handle does not know."""


class InjectivityError(StratisolveError):
    """An edge-group image has the wrong order in its vertex handle."""


class UndeterminedError(StratisolveError):
    """Order resolution exhausted its budget; lists the unresolved blacks."""

    def __init__(self, blacks):
        self.blacks = tuple(blacks)
        super().__init__("could not certify orders for: " + ", ".join(self.blacks))


class IncompleteTableError(StratisolveError):
    pass


class NotZeroTerminalError(StratisolveError):
    pass


class NotApplicableError(StratisolveError):
    """A necessary condition for the requested decision procedure fails."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)
