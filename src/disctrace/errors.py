"""Exception hierarchy for disctrace."""


class DiscTraceError(Exception):
    """Base class for all disctrace errors."""


# geometry
class OutsideClosedBall(DiscTraceError):
    """Point lies strictly outside the closed unit ball."""


class CoincidentPoints(DiscTraceError):
    """Two points expected to be distinct coincide."""


# discs
class ZeroDirection(DiscTraceError):
    """Direction vector of a complex line is zero."""


class LineMissesBall(DiscTraceError):
    """The complex line does not meet the open unit ball."""


class NoSolution(DiscTraceError):
    """The disc recovered from a lift point does not lift to its class."""


# cr-lifts
class PoleAtAxis(DiscTraceError):
    """Evaluation at z1 = 0 where the formula has a pole."""


class SingularAtCenter(DiscTraceError):
    """Evaluation at the family center where the basis is singular."""


class SingularAtReflectedPole(DiscTraceError):
    """Evaluation at the reflected pole 1/conj(center)."""


class BoundaryParameterOffCircle(DiscTraceError):
    """Boundary parameter does not lie on the unit circle."""


class CurveThroughOrigin(DiscTraceError):
    """Sweep curve passes through the origin; refine the sampling."""


class ChartEvaluationFailure(DiscTraceError):
    """Lifted family could not be evaluated at the requested point: on the
    singular fiber z = P, outside the affine chart z1 != 0, or at a lift
    point that is not on the family."""


# boundary functions
class OffSphere(DiscTraceError):
    """Evaluation point is not on the unit sphere."""


class DegreeOverflow(DiscTraceError):
    """Polynomial degree exceeds boundary.MAX_DEGREE."""


# moments
class NotExtendible(DiscTraceError):
    """Function fails the moment test along the disc."""


class NotInFamily(DiscTraceError):
    """Recovered disc does not pass through the family center."""


# verification
class CollinearPoints(DiscTraceError):
    """The three points lie on one complex line."""


class DegenerateSample(DiscTraceError):
    """Kernel dimension did not stabilize or the spectral gap is too small."""
