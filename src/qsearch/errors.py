"""The package's one exception type.

Arguments a function or constructor refuses raise a plain ``ValueError``.
``QSearchError`` is raised only when a computation's check of its own result
fails, so the CLI maps it, and only it, to exit code 1.
"""


class QSearchError(Exception):
    """A computation's check of its own result failed (say, norm drift)."""
