"""Shared exception types.

The CLI maps these onto exit codes: contract problems exit 1, enumeration
cap overruns exit 2, internal invariant violations exit 3.
"""

# Largest enumeration or state space built without an explicit budget.
DEFAULT_ENUMERATION_CAP = 500_000

# Longest rendering of an input value that an error message echoes whole.
ECHO_MAX = 60


def echo(value, render=repr) -> str:
    """An input value as an error message shows it: render(value) when it
    has at most ECHO_MAX characters, else its head and its length, so that
    a value of thousands of characters still makes a one-line message."""
    text = render(value)
    if len(text) <= ECHO_MAX:
        return text
    return f"{text[:ECHO_MAX]}... ({len(text)} characters)"


class ContractError(ValueError):
    """Malformed or inconsistent contract input (bad scalars, Y > X, ...)."""


class EnumerationCapError(RuntimeError):
    """An exhaustive enumeration would exceed the configured cap."""

    def __init__(self, needed, cap):
        # a count too large to build (None) or to print is named by the cap
        try:
            count = f"more than {cap}" if needed is None else str(needed)
        except ValueError:
            count = f"more than {cap}"
        super().__init__(f"enumeration needs {count} items, cap is {cap}")
        self.needed = needed
        self.cap = cap


class InvariantError(AssertionError):
    """An internal invariant failed; indicates a bug, not bad input."""
