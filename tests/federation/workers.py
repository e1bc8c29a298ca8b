"""The sequential run of a federation: its engine held to one worker."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager


@contextmanager
def one_worker(service) -> Iterator[None]:
    """Inside the block ``service``'s engine has ``max_workers = 1``, so
    every endpoint call leaves from the calling thread; the previous
    setting is restored on exit."""
    engine = service.federation
    previous, engine.max_workers = engine.max_workers, 1
    try:
        yield
    finally:
        engine.max_workers = previous
