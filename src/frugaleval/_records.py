"""What the package's records share. It imports nothing, so a command
that builds a record loads no model it does not run."""


def _checked_make(cls, iterable):
    """`_make` for a record whose `__new__` checks its fields. A named
    tuple's own `_make` skips `__new__`, and `_replace` builds through
    `_make`, so each checked record sets `_make = classmethod(_checked_make)`
    to keep both behind its checks."""
    return cls(*iterable)
