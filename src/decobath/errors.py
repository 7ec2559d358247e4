"""Exception types shared across the package."""


class NormalizationError(ValueError):
    """A state vector or amplitude pair is not normalized.

    Attributes:
        deviation: Measured deviation |norm^2 - 1|.
    """

    def __init__(self, message: str, deviation: float):
        super().__init__(f"{message} (deviation {deviation:.3e})")
        self.deviation = deviation


class QuadratureError(RuntimeError):
    """A spectral-density integral missed its target accuracy."""


class DegenerateParametersError(ValueError):
    """Zero temperature with omega0 = 0 leaves the correlated preparation undefined."""


class TraceDriftError(RuntimeError):
    """A conserved trace or norm drifted past its abort limit.

    Raised by master-equation integration, by sector evolution's norm check
    and by the spectral path's sum rule (the weights of the initial state
    must sum to its norm, 1, as they do at t = 0).

    Attributes:
        drift: The measured trace drift.
        t: Time at which the abort triggered.
        limit: The abort threshold.
    """

    def __init__(self, drift: float, t: float, limit: float):
        super().__init__(
            f"trace drift {drift:.3e} at t={t:.6g} exceeds abort threshold {limit:g}"
        )
        self.drift = drift
        self.t = t
        self.limit = limit


class ConfigError(ValueError):
    """One or more configuration problems; collects every message.

    Attributes:
        messages: All validation failures, each prefixed with a line number
            when one is known.
    """

    def __init__(self, messages: list[str]):
        super().__init__("\n".join(messages))
        self.messages = list(messages)


class WorkBudgetError(ValueError):
    """A run's estimated work or bytes exceed a cap of ``trajectory.check_work``.

    Raised before any large allocation, so an oversized bath or grid is
    refused at once instead of running for hours.  ``work`` is in secular
    (root, pole) pairs, ``nbytes`` counts the bytes of the run's largest
    arrays, ``size`` the terms the work scales with and ``points`` the time
    points; ``limit`` is the cap that binds.
    """

    def __init__(self, message: str, work, nbytes, size, points: int, limit: int):
        super().__init__(message)
        self.work, self.nbytes, self.size, self.points, self.limit = (
            work, nbytes, size, points, limit)
