"""How an error message or a finding quotes a value read from its input."""


def quote(value) -> str:
    """``repr(value)``, with all but its first and last 48 characters elided past 100.

    A hostile input value may be megabytes long, and a message names it once.
    """
    text = repr(value)
    return text if len(text) <= 100 else f"{text[:48]}...{text[-48:]}"
