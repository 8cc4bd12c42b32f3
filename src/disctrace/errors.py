"""Exception hierarchy for disctrace: bad arguments raise ValueError; these
classes report a numerical outcome or a condition that a caller branches on."""


class DiscTraceError(Exception):
    """Base class for all disctrace errors."""


class LineMissesBall(DiscTraceError):
    """The complex line does not meet the open unit ball."""


class NoSolution(DiscTraceError):
    """The disc recovered from a lift point does not lift to its class."""


class ChartEvaluationFailure(DiscTraceError):
    """Lifted family could not be evaluated at the requested point: at a
    pole of a conormal basis, on the singular fiber z = P, outside the
    affine chart z1 != 0, at a lift point that is not on the family, or
    where the direction sweep curve passes through the origin."""


class NotExtendible(DiscTraceError):
    """Function fails the moment test along the disc."""


class CollinearPoints(DiscTraceError):
    """The points are not in general position: two of them coincide or are
    too near to tell apart, or three or more all lie on one complex
    line."""


class DegenerateSample(DiscTraceError):
    """Kernel dimension did not stabilize or the spectral gap is too small."""
