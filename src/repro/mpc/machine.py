"""The synchronous Module Parallel Computer.

An :class:`MPC` executes steps: in a step every active processor
addresses one module, and each module serves exactly one of its pending
requests (chosen by the arbitration policy).  The machine enforces the
one-access-per-module-per-step contract, counts time, and reports
congestion -- the quantities all of the paper's bounds are about.
"""

from __future__ import annotations

import numpy as np

from repro.mpc.arbitration import Arbiter, make_arbiter
from repro.mpc.stats import MPCStats

__all__ = ["MPC", "all_distinct", "max_multiplicity"]


def all_distinct(x: np.ndarray) -> bool:
    """True iff no two entries of ``x`` are equal (one sort, O(k log k))."""
    s = np.sort(x, axis=None)
    return not bool((s[1:] == s[:-1]).any())


def max_multiplicity(x: np.ndarray) -> int:
    """Occurrences of the most frequent entry of ``x`` (0 when empty):
    one sort, so O(k log k) in the entries, not in their range."""
    if x.size == 0:
        return 0
    s = np.sort(x, axis=None)
    runs = np.flatnonzero(s[1:] != s[:-1])
    ends = np.empty(runs.size + 2, dtype=np.intp)  # last index of each run
    ends[0], ends[1:-1], ends[-1] = -1, runs, s.size - 1
    return int((ends[1:] - ends[:-1]).max())


class MPC:
    """N processors / N modules, complete interconnect, unit-time modules.

    Parameters
    ----------
    n_modules:
        Number of memory modules (the paper also sets the number of
        processors to this value, but the machine accepts any number of
        simultaneous requests -- processors are implicit).
    arbitration:
        Policy name: ``'lowest'`` (deterministic), ``'random'``,
        ``'rotating'``; see :mod:`repro.mpc.arbitration`.
    seed:
        Seed for the random policy.
    history:
        Keep a per-step served-count history in :attr:`stats`.
    """

    def __init__(
        self,
        n_modules: int,
        arbitration: str | Arbiter = "lowest",
        seed: int = 0,
        history: bool = False,
    ):
        if n_modules <= 0:
            raise ValueError("n_modules must be positive")
        self.n_modules = n_modules
        self.arbiter: Arbiter = (
            make_arbiter(arbitration, seed)
            if isinstance(arbitration, str)
            else arbitration
        )
        self.stats = MPCStats(keep_history=history)

    def step(
        self, module_ids: np.ndarray, blocked: np.ndarray | None = None
    ) -> np.ndarray:
        """Execute one synchronous step.

        Parameters
        ----------
        module_ids:
            int64 array; entry ``i`` is the module addressed by pending
            request ``i`` (processor order).
        blocked:
            Optional ``(n_modules,)`` bool mask of modules that receive
            requests but do not answer this step (grey/slow modules
            under fault injection).  Blocked requests still count toward
            congestion -- the module's queue is real, its service isn't.

        Returns
        -------
        Indices (into ``module_ids``) of the requests served this step --
        exactly one per distinct module.
        """
        module_ids = np.asarray(module_ids, dtype=np.int64)
        if module_ids.size == 0:
            # An idle step still advances time.
            self.stats.record_step(0, 0, 0)
            return np.empty(0, dtype=np.int64)
        if ((module_ids < 0) | (module_ids >= self.n_modules)).any():
            raise ValueError("request addresses a nonexistent module")
        if blocked is None:
            winners = self.arbiter(module_ids)
        else:
            blocked = np.asarray(blocked, dtype=bool)
            if blocked.shape != (self.n_modules,):
                raise ValueError(
                    f"blocked mask must have shape ({self.n_modules},)"
                )
            idx_open = np.nonzero(~blocked[module_ids])[0]
            if idx_open.size == 0:
                # every addressed module is silent: an empty step
                congestion = max_multiplicity(module_ids)
                self.stats.record_step(module_ids.size, 0, congestion)
                return np.empty(0, dtype=np.int64)
            winners = idx_open[self.arbiter(module_ids[idx_open])]
        # contract check: winners hit distinct modules
        served_mods = module_ids[winners]
        # congestion over the *requested* modules only (O(k log k), not O(N))
        congestion = max_multiplicity(module_ids)
        if not all_distinct(served_mods):
            raise AssertionError("arbiter served a module twice in one step")
        self.stats.record_step(module_ids.size, winners.size, congestion)
        return winners

    def step_scalar(
        self,
        module_ids: "np.ndarray | list[int]",
        blocked: "np.ndarray | list[bool] | None" = None,
    ) -> list[int]:
        """One synchronous step, executed one request at a time.

        The scalar reference path of the engine switch
        (:mod:`repro.core.engine`): per-module winner selection happens
        in a plain Python dict scan instead of a sort, driven by the
        *same* arbitration priorities (:meth:`Arbiter.priorities`, same
        RNG stream for the random policy) and folding the same numbers
        into :attr:`stats`, so a scalar run is step-for-step comparable
        with :meth:`step`.  Winners are returned sorted by module id --
        the order the vectorized sort produces.
        """
        ids = [int(m) for m in module_ids]
        k = len(ids)
        if k == 0:
            # An idle step still advances time.
            self.stats.record_step(0, 0, 0)
            return []
        counts: dict[int, int] = {}
        for m in ids:
            if m < 0 or m >= self.n_modules:
                raise ValueError("request addresses a nonexistent module")
            counts[m] = counts.get(m, 0) + 1
        congestion = max(counts.values())
        if blocked is None:
            open_pos = list(range(k))
        else:
            if len(blocked) != self.n_modules:
                raise ValueError(
                    f"blocked mask must have shape ({self.n_modules},)"
                )
            open_pos = [p for p in range(k) if not blocked[ids[p]]]
            if not open_pos:
                # every addressed module is silent: an empty step
                self.stats.record_step(k, 0, congestion)
                return []
        prio = self.arbiter.priorities(len(open_pos))
        best: dict[int, tuple[int, int]] = {}
        for rank, p in enumerate(open_pos):
            m = ids[p]
            pr = int(prio[rank])
            cur = best.get(m)
            if cur is None or pr < cur[0]:
                best[m] = (pr, p)
        winners = [best[m][1] for m in sorted(best)]
        self.stats.record_step(k, len(winners), congestion)
        return winners

    def reset(self) -> None:
        """Clear statistics (keeps the arbitration policy object)."""
        keep = self.stats.keep_history
        self.stats = MPCStats(keep_history=keep)

    def __repr__(self) -> str:
        return f"MPC(n_modules={self.n_modules}, steps={self.stats.steps})"
