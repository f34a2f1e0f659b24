"""Reference oracles for the service's round semantics.

Two replay models, both driven by the :class:`RoundResult` completions
the core hands back:

* :class:`SerialOracle` -- the fault-free model: a plain dict replayed
  with the documented round semantics (gets see pre-round state; put
  conflicts resolve largest-value-then-lowest-session; deletes last).
  Every completed response must match it exactly.
* :class:`AdmissibleOracle` -- the degraded-mode model: a declared-lost
  batch *may or may not* have reached the store (a quorum can be lost
  after some copies were written), so each key tracks the **set** of
  admissible values.  A successful get must observe an admissible
  value.  The set is monotone between commits: an observation does NOT
  collapse it, because a latent partially-written copy carries a fresh
  timestamp and wins any later quorum it happens to join while losing
  any it misses -- under flapping modules the served value can
  legitimately oscillate between the old and the declared-lost write.
  Only a *committed* (fully acknowledged) put pins the set again: its
  majority-fresh timestamps dominate every earlier latent copy of the
  value variable.  A key that may have been absent when a put was lost
  keeps ``-1`` admissible (a torn insert can leave the value written
  but the key's fingerprint unclaimed); a lost delete keeps ``-1``
  admissible the same way (a torn tombstone).  An insert writes the
  value before it claims the fingerprint, so a recycled slot never
  serves its deleted tenant's value to the new key.  This is the
  machine-checkable form of "degraded answers are correct or declared
  lost, never silently wrong".
"""

from __future__ import annotations

import numpy as np

from repro.service.batcher import OP_DELETE, OP_GET, OP_PUT, RoundResult
from repro.service.errors import STATUS_LOST, STATUS_OK

__all__ = ["SerialOracle", "AdmissibleOracle", "Mismatch"]

_MISSING = -1


class Mismatch:
    """One response that disagreed with the oracle."""

    def __init__(
        self, round_id: int, session: int, op: int, key: int,
        observed: int, expected: int,
    ) -> None:
        self.round_id = int(round_id)
        self.session = int(session)
        self.op = int(op)
        self.key = int(key)
        self.observed = int(observed)
        self.expected = expected

    def __repr__(self) -> str:
        return (
            f"Mismatch(round={self.round_id}, session={self.session}, "
            f"op={self.op}, key={self.key}, observed={self.observed}, "
            f"expected={self.expected})"
        )


def _put_winners(
    keys: np.ndarray, values: np.ndarray, sessions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(winning keys, winning values): largest value, lowest session."""
    order = np.lexsort((sessions, -values, keys))
    ks = keys[order]
    lead = np.r_[True, ks[1:] != ks[:-1]]
    return ks[lead], values[order][lead]


class SerialOracle:
    """Dict replay of the fault-free round semantics."""

    def __init__(self) -> None:
        self.model: dict[int, int] = {}
        self.mismatches: list[Mismatch] = []
        self.checked = 0

    def apply_round(self, res: RoundResult, max_keep: int = 16) -> int:
        """Replay one round; returns the number of fresh mismatches."""
        before = len(self.mismatches)
        ok = np.asarray(res.status) == STATUS_OK
        op = np.asarray(res.op)
        key = np.asarray(res.key)
        val = np.asarray(res.value)
        sess = np.asarray(res.session)
        # gets observe the pre-round model
        for i in np.nonzero(ok & (op == OP_GET))[0]:
            expected = self.model.get(int(key[i]), _MISSING)
            self.checked += 1
            if int(val[i]) != expected and len(self.mismatches) < max_keep:
                self.mismatches.append(
                    Mismatch(res.round_id, sess[i], OP_GET, key[i],
                             val[i], expected)
                )
        # puts: one winner per key
        p = ok & (op == OP_PUT)
        if p.any():
            wk, wv = _put_winners(key[p], val[p], sess[p])
            for k, v in zip(wk, wv):
                self.model[int(k)] = int(v)
        # deletes last
        for i in np.nonzero(ok & (op == OP_DELETE))[0]:
            self.model.pop(int(key[i]), None)
        return len(self.mismatches) - before

    @property
    def ok(self) -> bool:
        """No response has disagreed with the model."""
        return not self.mismatches


class AdmissibleOracle:
    """Set-valued replay tolerating declared-lost uncertainty."""

    def __init__(self) -> None:
        #: key -> set of admissible values (absent key = {missing})
        self.model: dict[int, set[int]] = {}
        #: keys where a torn insert/tombstone may read back as missing
        #: even after a later committed update-path put
        self.sticky_absent: set[int] = set()
        self.mismatches: list[Mismatch] = []
        self.checked = 0

    def _admissible(self, key: int) -> set[int]:
        adm = self.model.get(key, {_MISSING})
        if key in self.sticky_absent:
            return adm | {_MISSING}
        return adm

    def apply_round(self, res: RoundResult, max_keep: int = 16) -> int:
        """Replay one round; returns the number of fresh mismatches."""
        before = len(self.mismatches)
        status = np.asarray(res.status)
        ok = status == STATUS_OK
        lost = status == STATUS_LOST
        op = np.asarray(res.op)
        key = np.asarray(res.key)
        val = np.asarray(res.value)
        sess = np.asarray(res.session)
        # successful gets: the observation must be admissible.  It does
        # NOT shrink the set -- with no read-repair, a latent partial
        # copy keeps oscillating in and out of later quorums.
        for i in np.nonzero(ok & (op == OP_GET))[0]:
            k = int(key[i])
            adm = self._admissible(k)
            self.checked += 1
            if int(val[i]) not in adm and len(self.mismatches) < max_keep:
                self.mismatches.append(
                    Mismatch(res.round_id, sess[i], OP_GET, k,
                             val[i], sorted(adm))
                )
        # puts: committed batches pin the winner (their majority-fresh
        # stamps dominate every older latent copy); lost batches *may*
        # have applied their winner (the store dedups before writing),
        # and a torn insert can leave the key probing as absent
        p = op == OP_PUT
        if p.any():
            wk, wv = _put_winners(key[p], val[p], sess[p])
            lost_keys = set(int(k) for k in key[lost & p])
            for k, v in zip(wk, wv):
                k, v = int(k), int(v)
                if k in lost_keys:
                    adm = self._admissible(k)
                    if _MISSING in adm:
                        self.sticky_absent.add(k)
                    self.model[k] = adm | {v}
                else:
                    self.model[k] = {v}
        # deletes: committed pin missing; lost may have torn-tombstoned
        # the fingerprint cell, which no later update-path put rewrites
        for i in np.nonzero(ok & (op == OP_DELETE))[0]:
            k = int(key[i])
            self.model[k] = {_MISSING}
            self.sticky_absent.discard(k)
        for i in np.nonzero(lost & (op == OP_DELETE))[0]:
            k = int(key[i])
            self.model[k] = self._admissible(k) | {_MISSING}
            self.sticky_absent.add(k)
        return len(self.mismatches) - before

    @property
    def ok(self) -> bool:
        """Every delivered answer was admissible."""
        return not self.mismatches
