"""Structured operator logging for ``repro.serve``.

The serving stack signals degradations (disabled sink, history-persist
failure, torn JSONL tail) to *API users* through
``warnings.warn(..., UserWarning)`` — those stay, because a library caller
filters warnings, not log streams.  Operators running ``repro serve`` want
the same facts as log records instead: greppable, timestamped, leveled.
This module is that second channel.

Everything logs under the ``"repro.serve"`` stdlib logger, which carries a
``NullHandler`` by default (library-friendly: silent until the application
configures logging).  ``repro serve --log-level info`` calls
:func:`configure_logging` to attach a stderr handler for the CLI.

:func:`log_event` renders structured records in ``event key=value`` form so
a single grep pulls every record of one event type::

    repro.serve WARNING sink_disabled sink='JsonlSink' n_errors=3 ...
"""

from __future__ import annotations

import logging
from typing import Any

__all__ = ["configure_logging", "get_logger", "log_event", "logger"]

#: Package logger: silent (NullHandler) until the application configures it.
logger = logging.getLogger("repro.serve")
logger.addHandler(logging.NullHandler())

_FORMAT = "%(asctime)s %(name)s %(levelname)s %(message)s"


def get_logger(name: str | None = None) -> logging.Logger:
    """The ``repro.serve`` logger, or a child (``get_logger("faults")``)."""
    if not name:
        return logger
    return logger.getChild(name)


def configure_logging(level: int | str = logging.INFO) -> logging.Logger:
    """Attach one stderr handler to the package logger (idempotent).

    Meant for the CLI (``serve --log-level``); libraries embedding the
    service should configure the ``"repro.serve"`` logger themselves.
    Calling twice adjusts the level instead of stacking handlers.
    """
    if isinstance(level, str):
        level = logging.getLevelName(level.upper())
        if not isinstance(level, int):
            raise ValueError(f"unknown log level {level!r}")
    handler = next(
        (
            h
            for h in logger.handlers
            if isinstance(h, logging.StreamHandler)
            and not isinstance(h, logging.NullHandler)
        ),
        None,
    )
    if handler is None:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(_FORMAT))
        logger.addHandler(handler)
    handler.setLevel(level)
    logger.setLevel(level)
    return logger


def log_event(
    level: int, event: str, *, logger_: logging.Logger | None = None, **fields: Any
) -> None:
    """Log ``event key=value ...`` at ``level``, values ``repr()``-rendered.

    Field order follows the call site, so related records line up; the event
    name leads, so ``grep sink_disabled`` finds every occurrence.
    """
    target = logger_ if logger_ is not None else logger
    if not target.isEnabledFor(level):
        return
    parts = [event]
    parts.extend(f"{key}={value!r}" for key, value in fields.items())
    target.log(level, " ".join(parts))
