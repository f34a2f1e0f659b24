"""Seeded D4 violation: a trace event outside the obs.span/obs.emit API."""

import repro.obs as _obs


def touch(key: str) -> None:
    _obs.tracer().event("kv.touch", key=key)  # a side channel, guarded or not
