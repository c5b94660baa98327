"""Peak traced memory of one call, for the tests that bound a layer's memory."""

from __future__ import annotations

import tracemalloc


def traced_peak(call, *args, **kwargs) -> int:
    """Bytes at tracemalloc's peak while ``call(*args, **kwargs)`` runs.

    Tracing stops even if the call raises.
    """
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
