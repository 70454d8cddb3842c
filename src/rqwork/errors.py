"""The one base class of the errors an engine raises on a bad request.

It lives apart from the engines so that ``rqwork.cli`` can catch every
engine's errors without importing any engine.
"""


class EngineError(ValueError):
    """An engine refused its input; ``rq`` reports it as ``rq: <message>``."""
