"""Exception types shared across the package."""


class NormalizationError(ValueError):
    """A state vector or amplitude pair is not normalized.

    Attributes:
        deviation: Measured deviation |norm^2 - 1|.
    """

    def __init__(self, message: str, deviation: float):
        super().__init__(f"{message} (deviation {deviation:.3e})")
        self.deviation = deviation


class CompletenessError(ValueError):
    """A pair of measurement operators violates M0^dag M0 + M1^dag M1 = I.

    Attributes:
        deviation: Largest entrywise deviation from the identity.
    """

    def __init__(self, message: str, deviation: float):
        super().__init__(f"{message} (deviation {deviation:.3e})")
        self.deviation = deviation


class QuadratureError(RuntimeError):
    """A spectral-density integral missed its target accuracy, or was refused
    because its quadrature work would exceed ``dephasing_nm.MAX_SPECTRAL_EVALS``."""


class SingularCorrelationError(ArithmeticError):
    """The correlated-bath log argument vanished: the coherence is annihilated.

    Callers that only need the density matrix should map this to an
    exactly zero off-diagonal element.
    """


class DegenerateParametersError(ValueError):
    """Bath parameters make the phase-shift denominator vanish."""


class TraceDriftError(RuntimeError):
    """Trace drift during master-equation integration exceeded the abort limit.

    Attributes:
        drift: The measured trace drift.
        t: Integration time at which the abort triggered.
    """

    def __init__(self, drift: float, t: float):
        super().__init__(
            f"trace drift {drift:.3e} at t={t:.6g} exceeds abort threshold 1e-6"
        )
        self.drift = drift
        self.t = t


class ConfigError(ValueError):
    """One or more configuration problems; collects every message.

    Attributes:
        messages: All validation failures, each prefixed with a line number
            when one is known.
    """

    def __init__(self, messages: list[str]):
        super().__init__("\n".join(messages))
        self.messages = list(messages)


class StepBudgetError(ValueError):
    """A master-equation run would take more fine RK4 steps than the cap.

    Raised before any integration work, so an oversized run is refused at
    once instead of running for tens of minutes.

    Attributes:
        steps: Estimated fine step count (grid steps times refine factor).
        refine: Fine steps per grid step.
        limit: The step cap.
    """

    def __init__(self, steps: int, refine: int, limit: int):
        super().__init__(
            f"master-equation run needs an estimated {steps} RK4 steps "
            f"(refine factor {refine}), above the cap of {limit}"
        )
        self.steps = steps
        self.refine = refine
        self.limit = limit
