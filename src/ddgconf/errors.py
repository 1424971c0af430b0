"""Exception hierarchy shared by all modules.

Every error carries a machine-readable ``code`` used by the CLI to build
defect reports.
"""


class DDGError(Exception):
    code = "error"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


# input and output
class InvalidInput(DDGError):
    code = "invalid_input"


class NonFinite(DDGError):
    code = "non_finite"


# mesh construction
class NonManifold(DDGError):
    code = "non_manifold"


class InconsistentOrientation(DDGError):
    code = "inconsistent_orientation"


class Disconnected(DDGError):
    code = "disconnected"


class NotSimplyConnected(DDGError):
    code = "not_simply_connected"


# geometry
class DegenerateFace(DDGError):
    code = "degenerate_face"


class MeshMismatch(DDGError):
    code = "mesh_mismatch"


class CoincidentVertices(DDGError):
    code = "coincident_vertices"


class VertexAtInfinity(DDGError):
    code = "vertex_at_infinity"


# solver
class SingularSystem(DDGError):
    code = "singular_system"


class MissingBoundaryData(DDGError):
    code = "missing_boundary_data"


# verdicts: well-formed data that fails a mathematical check
class VerificationError(DDGError):
    pass


class NotHarmonic(VerificationError):
    code = "not_harmonic"


class IncompatibleRates(VerificationError):
    code = "incompatible_rates"


class IntegrationDefect(VerificationError):
    code = "integration_defect"


class ClosureDefect(VerificationError):
    code = "closure_defect"


class NotRealizable(VerificationError):
    code = "not_realizable"


class NotHolomorphic(VerificationError):
    code = "not_holomorphic"


class NotMinimal(VerificationError):
    code = "not_minimal"
