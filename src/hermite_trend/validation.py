"""The error every layer raises for a parameter outside its domain.

A front end reports it under its own name for the field (config key, CLI
flag) through ``renamed``, so no caller parses message text.
"""

__all__ = ["ParameterError", "check_hurst"]


class ParameterError(ValueError):
    """``str`` is ``f"{field} {detail}"``, with the field named as the raising layer does."""

    def __init__(self, field: str, detail: str):
        super().__init__(field, detail)  # both in args, so the error pickles
        self.field, self.detail = field, detail

    def __str__(self) -> str:
        return f"{self.field} {self.detail}"

    def renamed(self, name: str) -> "ParameterError":
        return ParameterError(name, self.detail)


def check_hurst(hurst: float) -> None:
    """The Hurst domain of fGn, the Hermite processes and the kernel variance."""
    if not 0.5 < hurst < 1.0:
        raise ParameterError("hurst", f"must lie strictly in (0.5, 1), got {hurst}")
