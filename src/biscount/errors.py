"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto process exit codes: invalid input -> 2,
capacity -> 3, anything else -> 4.
"""


class InvalidInputError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class GraphFormatError(InvalidInputError):
    """Graph text rejected; message carries the offending line number."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


class CapacityError(RuntimeError):
    """Work or memory would exceed a configured desk-scale cap."""
