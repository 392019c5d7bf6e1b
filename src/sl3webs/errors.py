"""Exception types shared across the package, and the JSON field check that raises one."""


class SingularMatrix(ValueError):
    """Raised when a matrix that must be invertible over K has zero determinant."""


class RankDeficient(ValueError):
    """Raised when generators fail to span a full-rank lattice."""


class PreconditionViolated(ValueError):
    """Raised when an operation's documented input contract does not hold."""


class NotAPath(ValueError):
    """Raised when consecutive vertices of a claimed path are not adjacent."""


class InvalidChain(ValueError):
    """Raised when a sequence of partitions is not a chain of vertical strips."""


class NotAPartitionAfterSort(ValueError):
    """Raised when the growth local rule produces a non-partition triple."""


class NotVerticalStrip(ValueError):
    """Raised when two partitions do not differ by a vertical strip."""


class MalformedDiskoid(ValueError):
    """Raised when triangle, edge, and boundary data are inconsistent."""


class NoDoubleElbow(ValueError):
    """Raised when a diagram without U-turns or sharp corners has no elbow pair."""


class RealizationFailed(RuntimeError):
    """Raised when polygon realization exhausts its retry budget."""


class InvariantViolated(RuntimeError):
    """Raised when an internal invariant fails; this is a bug, not bad input."""


class MalformedJSON(ValueError):
    """Raised when a JSON document lacks a field or holds one of the wrong shape."""


def json_fields(obj, what, **kinds):
    """Values of the fields ``kinds`` names in a JSON object describing
    ``what``, each checked to be of its type (a boolean is no ``int``)."""
    if not isinstance(obj, dict):
        raise MalformedJSON(f"{what} must be a JSON object, got {type(obj).__name__}")
    for key, kind in kinds.items():
        if key not in obj:
            raise MalformedJSON(f"{what} has no field {key!r}")
        if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
            raise MalformedJSON(
                f"{what} field {key!r} must be of type {kind.__name__}, "
                f"got {type(obj[key]).__name__}"
            )
    return [obj[key] for key in kinds]
