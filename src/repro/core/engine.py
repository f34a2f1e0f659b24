"""The engine switch: scalar reference loop vs vectorized batch loop.

The paper's protocol is array-at-a-time -- every iteration all live
processors re-request their copies' modules and every module serves one
request -- and the production path simulates it that way, as numpy batch
operations (:func:`repro.core.protocol._run_phase`).  Batch code is
fast but hard to trust by inspection: a wrong mask or an off-by-one in
a segment reduction produces *plausible* iteration counts and silently
wrong winners.

This module keeps the semantics honest.  :func:`run_phase_scalar` is a
pure-Python, one-access-per-processor transcription of the Section-3
round loop -- the code a careful reader would write straight from the
paper, with per-module dict arbitration (:meth:`repro.mpc.machine.MPC.
step_scalar`) instead of vectorized sort/argmin.  Both executors
consume the identical arbitration priorities (and the identical RNG
stream for the random policy), so a run under ``engine='scalar'`` must
match a run under ``engine='vector'`` *bit for bit*: same winners, same
R_k histories, same module state, same fault reports.  The differential
suite (``tests/core/test_engine_differential.py``) enforces exactly
that across every scheme, which is what lets the vector hot path be
optimized aggressively without trusting it.

Engine selection: every access entry point takes ``engine='scalar' |
'vector' | None``; ``None`` resolves through the ``REPRO_ENGINE``
environment variable and defaults to ``'vector'``.  The scalar engine
is an *oracle*, not a fallback -- it is orders of magnitude slower and
intended for differential testing and debugging only.
"""

from __future__ import annotations

import numpy as np

from repro.core.protocol import PhaseTrace
from repro.mpc.machine import MPC
from repro.mpc.memory import SharedCopyStore

__all__ = ["ENGINES", "DEFAULT_ENGINE", "ENGINE_ENV", "resolve_engine", "run_phase_scalar"]

#: Recognized engine names, in preference order.
ENGINES: tuple[str, ...] = ("vector", "scalar")

#: Engine used when the caller passes ``engine=None`` and the
#: environment does not override it.
DEFAULT_ENGINE = "vector"

#: Environment variable consulted by :func:`resolve_engine` -- lets CI
#: re-run an entire test suite under the scalar oracle without touching
#: call sites.
ENGINE_ENV = "REPRO_ENGINE"


def resolve_engine(engine: str | None) -> str:
    """Normalize an ``engine`` argument to a concrete engine name.

    ``None`` resolves to ``$REPRO_ENGINE`` when set, else
    :data:`DEFAULT_ENGINE`; anything outside :data:`ENGINES` raises
    ``ValueError`` at the boundary instead of dispatching nowhere.
    """
    if engine is None:
        import os

        engine = os.environ.get(ENGINE_ENV) or DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; options: {list(ENGINES)}"
        )
    return engine


def run_phase_scalar(
    phase_vars: np.ndarray,
    module_ids: np.ndarray,
    slots: np.ndarray | None,
    mpc: MPC,
    majority: int,
    op: str,
    store: SharedCopyStore | None,
    values: np.ndarray | None,
    out_values: np.ndarray | None,
    time: int,
    collect_history: bool,
    max_iterations: int,
    dead_copy: np.ndarray | None = None,
    grey: np.ndarray | None = None,
    retry_limit: int | None = None,
    allow_partial: bool = False,
    out_lost: np.ndarray | None = None,
    out_sat: np.ndarray | None = None,
) -> PhaseTrace:
    """One protocol phase, one access per processor per iteration.

    Signature-compatible with the vectorized
    :func:`repro.core.protocol._run_phase`; every quantity it writes
    (``out_values``, ``out_lost``, ``out_sat``, the store cells, the
    MPC stats, the returned :class:`~repro.core.protocol.PhaseTrace`)
    is defined to be identical.
    """
    P = int(phase_vars.shape[0])
    copies = int(module_ids.shape[1])
    history = [P] if collect_history else []
    if P == 0:
        return PhaseTrace(iterations=0, live_history=history)

    pv = [int(v) for v in phase_vars]
    mods = [[int(module_ids[v, c]) for c in range(copies)] for v in pv]
    slts = (
        [[int(slots[v, c]) for c in range(copies)] for v in pv]
        if slots is not None
        else None
    )
    accessed = [[False] * copies for _ in range(P)]
    hit = [0] * P
    satisfied = [False] * P
    doomed = [False] * P
    if dead_copy is not None:
        for i, v in enumerate(pv):
            alive = copies
            for c in range(copies):
                if dead_copy[v, c]:
                    # dead copies are never requested...
                    accessed[i][c] = True
                    alive -= 1
            if alive < majority:
                # ...and unreachable quorums are resolved up front so
                # the phase can end (caller reports them).
                doomed[i] = True
                satisfied[i] = True
    lost = list(doomed)
    sat_local = [-1] * P if out_sat is not None else None
    best: list[tuple[int, int] | None] = [None] * P  # (stamp, value)
    vals_py = [int(values[v]) for v in pv] if op == "write" else None
    grey_list = [int(g) for g in grey] if grey is not None else None

    iterations = 0
    while not all(satisfied):
        if iterations >= max_iterations:  # pragma: no cover
            raise RuntimeError("protocol exceeded max_iterations")
        if retry_limit is not None and iterations >= retry_limit:
            # Bounded retry exhausted: declare the stragglers lost so
            # the phase terminates instead of spinning on them.
            still = [i for i in range(P) if not satisfied[i]]
            if not allow_partial:
                raise ValueError(
                    f"{len(still)} variables did not reach quorum "
                    f"{majority} within retry_limit={retry_limit} "
                    f"iterations; pass allow_partial=True to proceed "
                    f"without them"
                )
            for i in still:
                lost[i] = True
                satisfied[i] = True
            break
        # every live processor re-requests its unaccessed copy's module
        active: list[tuple[int, int]] = []
        for i in range(P):
            if satisfied[i]:
                continue
            row = accessed[i]
            for c in range(copies):
                if not row[c]:
                    active.append((i, c))
        req_mods = [mods[i][c] for (i, c) in active]
        if grey_list is None:
            winners = mpc.step_scalar(req_mods)
        else:
            # a grey module with period j answers only on iterations
            # where (iteration + 1) % j == 0 (healthy period-1 modules
            # always answer)
            blocked = [((iterations + 1) % g) != 0 for g in grey_list]
            winners = mpc.step_scalar(req_mods, blocked=blocked)
        for w in winners:
            i, c = active[w]
            accessed[i][c] = True
            hit[i] += 1
            if op == "write":
                store.write(mods[i][c], slts[i][c], vals_py[i], time)
            elif op == "read":
                val, stamp = store.read(mods[i][c], slts[i][c])
                stamp = int(stamp)
                if stamp >= 0:
                    cand = (stamp, int(val))
                    if best[i] is None or cand > best[i]:
                        best[i] = cand
        for i in range(P):
            satisfied[i] = lost[i] or hit[i] >= majority
        iterations += 1
        if sat_local is not None:
            for i in range(P):
                if satisfied[i] and sat_local[i] < 0 and not lost[i]:
                    sat_local[i] = iterations
        if collect_history:
            history.append(sum(1 for i in range(P) if not satisfied[i]))

    if op == "read":
        for i, v in enumerate(pv):
            out_values[v] = best[i][1] if best[i] is not None else -1
    if out_lost is not None:
        for i, v in enumerate(pv):
            out_lost[v] = lost[i]
    if out_sat is not None:
        for i, v in enumerate(pv):
            out_sat[v] = sat_local[i]
    return PhaseTrace(iterations=iterations, live_history=history)
