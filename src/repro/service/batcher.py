"""Deterministic round scheduler: requests -> PRAM rounds.

The paper's access protocol is a batch scheduler -- it turns N
concurrent requests into one deterministic majority-quorum round.  This
module is the service-side half of that bargain: it collects in-flight
get/put/delete requests from many sessions, admits a bounded batch per
round (FIFO with per-session fairness), combines same-key requests the
way the MPC model combines same-cell requests, and executes the batch
against the sharded repository.

Admission-control policy
------------------------
* **Bounded queue**: at most ``max_pending`` requests wait; submission
  beyond that is refused (backpressure) -- the queue can never grow
  without bound, so checker lag and memory stay bounded too.
* **Per-session fairness**: one request per session per round.  A round
  is composed of the *oldest* waiting request of each session, oldest
  sessions first, truncated at ``round_capacity`` -- a chatty session
  cannot starve a quiet one.
* **Pipelining**: a session may keep ``pipeline_depth`` requests in
  flight (submitted, not yet completed); with depth D a session can
  have one request admitted per round while D-1 more wait, hiding the
  round latency.

Conflict semantics (documented, mirrored by the serial oracle)
--------------------------------------------------------------
Within one round, gets execute first (they observe the pre-round
state), then puts, then deletes.  Same-key puts in one round are
combined to a single winner -- **largest value, then lowest session
id** -- the same largest-wins rule the protocol's MPC arbitration
applies to concurrent same-cell writes; losing puts still ack OK (their
write happened and was superseded within the round).  Same-key deletes
combine trivially.

Each shard runs its part of a round as one shard round
(:meth:`~repro.service.shards.ShardedKV.shard_round`): gets, then puts,
then deletes, on one shared probe.  Once one of them raises
:class:`~repro.faults.report.QuorumLostError`, that op and every later
op of the shard round fail with ``STATUS_LOST`` (retriable) and do not
run; ops that completed before it keep their answers.  Degraded
answers are declared, never served from partial state.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import repro.obs as _obs
from repro.conformance.streaming import Watchdog
from repro.obs.stream import EventBus
from repro.service.errors import STATUS_LOST, STATUS_OK
from repro.service.shards import ShardedKV

__all__ = [
    "OP_GET",
    "OP_PUT",
    "OP_DELETE",
    "OP_NAMES",
    "ServiceConfig",
    "RoundResult",
    "ServiceCore",
]

#: request op codes used by the vectorized queues
OP_GET, OP_PUT, OP_DELETE = 0, 1, 2
OP_NAMES = ("get", "put", "delete")


@dataclass(frozen=True)
class ServiceConfig:
    """Sizing and policy knobs of one service instance."""

    #: worker shard count (independent schemes, arbitration, faults)
    n_shards: int = 2
    #: Pietracaprina-Preparata expander parameters of each shard's
    #: ``PPAdapter(q, n)``
    q: int = 2
    n: int = 5
    #: max requests admitted into one PRAM round
    round_capacity: int = 1024
    #: admission-queue bound (backpressure beyond this)
    max_pending: int = 4096
    #: in-flight requests allowed per session
    pipeline_depth: int = 1
    #: salts the routing and table hashes
    seed: int = 0
    #: attach the streaming watchdog to a service-owned event bus
    watchdog: bool = True
    #: streaming-checker round window
    window: int = 8
    #: listed-violation cap (detection keeps counting past it)
    max_violations: int = 100
    #: health-snapshot cadence in service rounds (0 = never)
    snapshot_every: int = 8


@dataclass
class RoundResult:
    """Completions of one executed round (aligned arrays)."""

    round_id: int
    seq: np.ndarray
    session: np.ndarray
    op: np.ndarray
    key: np.ndarray
    status: np.ndarray
    value: np.ndarray
    latency: np.ndarray

    @property
    def admitted(self) -> int:
        """Requests executed this round."""
        return int(self.seq.size)

    @property
    def lost(self) -> int:
        """Requests declared lost (quorum loss) this round."""
        return int((self.status == STATUS_LOST).sum())


@dataclass
class _Queue:
    """Pending-request columns (chunked struct-of-arrays FIFO)."""

    sess: list = field(default_factory=list)
    op: list = field(default_factory=list)
    key: list = field(default_factory=list)
    val: list = field(default_factory=list)
    seq: list = field(default_factory=list)
    stamp: list = field(default_factory=list)
    count: int = 0

    def push(
        self,
        sess: np.ndarray,
        op: np.ndarray,
        key: np.ndarray,
        val: np.ndarray,
        seq: np.ndarray,
        stamp: np.ndarray,
    ) -> None:
        self.sess.append(sess)
        self.op.append(op)
        self.key.append(key)
        self.val.append(val)
        self.seq.append(seq)
        self.stamp.append(stamp)
        self.count += int(sess.size)

    def concat(self) -> tuple[np.ndarray, ...]:
        out = tuple(
            np.concatenate(col) if len(col) != 1 else col[0]
            for col in (
                self.sess, self.op, self.key, self.val, self.seq, self.stamp
            )
        )
        return out

    def replace(
        self,
        sess: np.ndarray,
        op: np.ndarray,
        key: np.ndarray,
        val: np.ndarray,
        seq: np.ndarray,
        stamp: np.ndarray,
    ) -> None:
        self.sess = [sess]
        self.op = [op]
        self.key = [key]
        self.val = [val]
        self.seq = [seq]
        self.stamp = [stamp]
        self.count = int(sess.size)

    def clear(self) -> None:
        self.replace(*(np.empty(0, dtype=np.int64) for _ in range(5)),
                     np.empty(0, dtype=np.float64))


class ServiceCore:
    """Synchronous, deterministic service engine.

    Owns the sharded repository, the admission queue, the round loop,
    per-request latency accounting, and (optionally) the streaming
    watchdog wired onto a service-owned event bus.  The asyncio front
    end (:mod:`repro.service.service`) and the closed-loop load
    generator (:mod:`repro.service.loadgen`) are thin drivers around
    this core, so both transports share one verified round semantics.

    Use as a context manager (or call :meth:`open`/:meth:`close`): the
    event bus is installed process-wide via :func:`repro.obs.set_bus`
    while the service runs and restored on close.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        clock: Callable[[], float] = _time.perf_counter,
    ):
        self.config = config or ServiceConfig()
        self.store = ShardedKV(
            n_shards=self.config.n_shards,
            q=self.config.q,
            n=self.config.n,
            seed=self.config.seed,
        )
        self.clock = clock
        self.rounds = 0
        self.completed = 0
        self.lost = 0
        self.rejected = 0
        self._queue = _Queue()
        self._queue.clear()
        self._seq = 0
        self._outstanding = np.zeros(0, dtype=np.int64)
        self._lat_chunks: list[np.ndarray] = []
        self._open = False
        self._bus: EventBus | None = None
        self._prev_bus: EventBus | None = None
        self.watchdog: Watchdog | None = None

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> "ServiceCore":
        """Install the event bus + watchdog and start serving."""
        if self._open:
            return self
        if self.config.watchdog:
            self._bus = EventBus()
            self._prev_bus = _obs.set_bus(self._bus)
            self.watchdog = Watchdog(
                self._bus,
                window=self.config.window,
                max_violations=self.config.max_violations,
            )
        self._open = True
        return self

    def close(self) -> None:
        """Finish the watchdog and restore the previous event bus."""
        if not self._open:
            return
        self._open = False
        if self.watchdog is not None:
            self.watchdog.finish()  # drains the bus first
            self.watchdog.detach()
        if self.config.watchdog:
            _obs.set_bus(self._prev_bus)
            self._prev_bus = None
            self._bus = None

    def __enter__(self) -> "ServiceCore":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- sessions ----------------------------------------------------------

    @property
    def n_sessions(self) -> int:
        """Registered sessions (dense ids ``0..n_sessions-1``)."""
        return int(self._outstanding.size)

    def register_sessions(self, count: int) -> np.ndarray:
        """Allocate ``count`` new dense session ids."""
        if count < 0:
            raise ValueError("count must be >= 0")
        start = self._outstanding.size
        self._outstanding = np.concatenate(
            [self._outstanding, np.zeros(count, dtype=np.int64)]
        )
        return np.arange(start, start + count, dtype=np.int64)

    # -- submission (admission control) ------------------------------------

    @property
    def pending(self) -> int:
        """Requests waiting in the admission queue."""
        return self._queue.count

    @property
    def room(self) -> int:
        """Queue slots left before backpressure."""
        return max(0, self.config.max_pending - self._queue.count)

    def submit_batch(
        self,
        sessions: np.ndarray,
        ops: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        stamp: float | None = None,
    ) -> np.ndarray:
        """Enqueue a vector of requests; returns the accepted mask.

        Requests are refused (mask False) when the session would exceed
        ``pipeline_depth`` or the queue is at ``max_pending`` -- the
        queue-room cut keeps FIFO order (a prefix of the remaining
        candidates is taken).  ``stamp`` is the submission clock reading
        used for latency accounting (one reading per batch: the batch
        arrived together).
        """
        sessions = np.asarray(sessions, dtype=np.int64)
        ops = np.asarray(ops, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        n = sessions.size
        if not (ops.size == keys.size == values.size == n):
            raise ValueError("request columns must have equal length")
        if n == 0:
            return np.zeros(0, dtype=bool)
        if sessions.size and (
            sessions.min() < 0 or sessions.max() >= self.n_sessions
        ):
            raise ValueError("unregistered session id in batch")
        # pipeline-depth filter: position of each request within its
        # session's slice of this batch, compared against head-room
        order = np.argsort(sessions, kind="stable")
        ss = sessions[order]
        boundary = np.r_[True, ss[1:] != ss[:-1]]
        grp = np.cumsum(boundary) - 1
        first_of_grp = np.nonzero(boundary)[0]
        pos = np.arange(n, dtype=np.int64) - first_of_grp[grp]
        depth_ok_sorted = (
            self._outstanding[ss] + pos < self.config.pipeline_depth
        )
        ok = np.empty(n, dtype=bool)
        ok[order] = depth_ok_sorted
        # queue-room cut: accept a FIFO prefix of the depth-ok requests
        room = self.room
        if int(ok.sum()) > room:
            idx = np.nonzero(ok)[0]
            ok[idx[room:]] = False
        if not ok.any():
            self.rejected += int(n)
            return ok
        self.rejected += int(n - ok.sum())
        sess = sessions[ok]
        accepted = int(sess.size)
        seqs = np.arange(self._seq, self._seq + accepted, dtype=np.int64)
        self._seq += accepted
        np.add.at(self._outstanding, sess, 1)
        t = self.clock() if stamp is None else float(stamp)
        self._queue.push(
            sess, ops[ok], keys[ok], values[ok], seqs,
            np.full(accepted, t, dtype=np.float64),
        )
        return ok

    def submit(self, session: int, op: int, key: int, value: int = 0) -> int:
        """Enqueue one request; returns its sequence number.

        Raises the admission errors of :mod:`repro.service.errors`
        instead of returning a mask (the asyncio front end's surface).
        """
        from repro.service import errors

        if self._outstanding[session] >= self.config.pipeline_depth:
            raise errors.PipelineFull(
                f"session {session} already has "
                f"{int(self._outstanding[session])} request(s) in flight"
            )
        if self.room < 1:
            self.rejected += 1
            raise errors.Backpressure(
                f"admission queue full ({self.config.max_pending} pending)"
            )
        seq = self._seq
        ok = self.submit_batch(
            np.asarray([session]), np.asarray([op]),
            np.asarray([key]), np.asarray([value]),
        )
        assert bool(ok[0])
        return seq

    # -- the round loop ----------------------------------------------------

    def run_round(self) -> RoundResult | None:
        """Admit one fair batch, execute it as PRAM rounds, complete it.

        Returns None when the queue is empty.
        """
        if self._queue.count == 0:
            return None
        sess, op, key, val, seq, stamp = self._queue.concat()
        # fairness: the oldest waiting request of each session, oldest
        # first (np.unique yields each session's first occurrence in
        # arrival order), truncated at round_capacity
        _, first_idx = np.unique(sess, return_index=True)
        first_idx.sort()
        admit_idx = first_idx[: self.config.round_capacity]
        mask = np.zeros(sess.size, dtype=bool)
        mask[admit_idx] = True
        self._queue.replace(
            sess[~mask], op[~mask], key[~mask], val[~mask], seq[~mask],
            stamp[~mask],
        )
        a_sess = sess[admit_idx]
        a_op = op[admit_idx]
        a_key = key[admit_idx]
        a_val = val[admit_idx]
        a_seq = seq[admit_idx]
        a_stamp = stamp[admit_idx]
        self.rounds += 1
        status = np.full(a_sess.size, STATUS_OK, dtype=np.int64)
        result = np.full(a_sess.size, -1, dtype=np.int64)
        shard = self.store.route_ints(a_key)
        for s in range(self.config.n_shards):
            in_s = shard == s
            if not in_s.any():
                continue
            g = in_s & (a_op == OP_GET)
            p = in_s & (a_op == OP_PUT)
            d = in_s & (a_op == OP_DELETE)
            gk, g_inv = np.unique(a_key[g], return_inverse=True)
            # puts: combine same-key writes to one winner (largest
            # value, then lowest session id -- the arbitration rule)
            idx = np.nonzero(p)[0]
            order = idx[np.lexsort((a_sess[idx], -a_val[idx], a_key[idx]))]
            lead = np.ones(order.size, dtype=bool)
            np.not_equal(a_key[order][1:], a_key[order][:-1], out=lead[1:])
            win = order[lead]
            # echo the request's own value even when the put is
            # declared lost: a lost write may still have partially
            # reached the store, and degraded-mode oracles need the
            # attempted value to track what could resurface
            result[p] = a_val[p]
            r = self.store.shard_round(
                s, gets=gk, puts=a_key[win], values=a_val[win],
                deletes=np.unique(a_key[d]),
            )
            if r.got is not None:
                result[g] = r.got[g_inv]
            if r.removed is not None:
                result[d] = 1
            if r.lost is not None:
                # the op that raised and every later op of the shard
                # round did not complete
                for mask, done in ((g, r.got), (p, r.put), (d, r.removed)):
                    if done is None:
                        status[mask] = STATUS_LOST
        lat = np.maximum(self.clock() - a_stamp, 0.0)
        np.add.at(self._outstanding, a_sess, -1)
        self._lat_chunks.append(lat.astype(np.float64))
        self.completed += int(a_sess.size)
        self.lost += int((status == STATUS_LOST).sum())
        if self.watchdog is not None:
            self.watchdog.poll()
            every = self.config.snapshot_every
            if every and self.rounds % every == 0:
                self.watchdog.snapshot()
        return RoundResult(
            round_id=self.rounds,
            seq=a_seq,
            session=a_sess,
            op=a_op,
            key=a_key,
            status=status,
            value=result,
            latency=lat,
        )

    def drain(self, max_rounds: int | None = None) -> list[RoundResult]:
        """Run rounds until the queue empties (or ``max_rounds``)."""
        out: list[RoundResult] = []
        while self._queue.count:
            if max_rounds is not None and len(out) >= max_rounds:
                break
            res = self.run_round()
            if res is None:  # pragma: no cover -- count checked above
                break
            out.append(res)
        return out

    # -- accounting --------------------------------------------------------

    def latency_summary(self) -> dict:
        """p50/p95/p99 (and mean/max) of completed-request latency, in
        seconds, over every completion so far."""
        if not self._lat_chunks:
            return {"count": 0}
        lat = np.concatenate(self._lat_chunks)
        p50, p95, p99 = np.percentile(lat, [50.0, 95.0, 99.0])
        return {
            "count": int(lat.size),
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
            "mean": float(lat.mean()),
            "max": float(lat.max()),
        }

    def stats(self) -> dict:
        """Service counters + repository cost + watchdog health."""
        out = {
            "rounds": self.rounds,
            "completed": self.completed,
            "lost": self.lost,
            "rejected": self.rejected,
            "pending": self.pending,
            "store": self.store.cost_summary(),
        }
        if self.watchdog is not None:
            out["watch"] = {
                "violations": self.watchdog.checker.n_violations,
                "events_dropped": self.watchdog.subscription.dropped,
                "checker_lag": self.watchdog.checker.lag_rounds,
                "state_size": self.watchdog.checker.state_size,
            }
        return out
