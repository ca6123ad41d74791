"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An argument breaks a documented precondition."""


class CapacityError(RuntimeError):
    """A dense object would exceed the configured dimension cap.

    The message names the offending size and, where one exists, the
    cheaper path (iterative norms, factorized expectations).
    """


class ConfigError(ValueError):
    """Invalid experiment configuration; carries all field errors at once."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
