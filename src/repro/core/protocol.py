"""Section 3: the clustered majority access protocol on the MPC.

Processors are grouped into clusters of ``q + 1``; the protocol runs
``q + 1`` *phases*, and in phase ``k`` the whole cluster cooperates on
the variable requested by its k-th member -- processor ``P(i, j)`` is in
charge of copy ``j`` of variable ``v(i, k)``.  Within a phase the
processors iterate: every processor whose copy is still alive and whose
variable is still unsatisfied re-requests its copy's module; each module
serves one request per iteration; a variable is satisfied once a
majority ``q/2 + 1`` of its copies has been accessed.

The simulator runs under one of two *engines* (see
:mod:`repro.core.engine`): the default ``'vector'`` engine executes
each iteration as one numpy arbitration pass -- a quarter-million-
request access at q = 2 runs in seconds -- while the ``'scalar'``
engine replays the identical protocol one access per processor in pure
Python as the differential-testing oracle.  Both engines share this
module's validation, fault classification, and observability emission,
so their outputs are comparable field for field.  The protocol can run
in three modes:

* ``op='count'``  -- iteration counting only (Theorems 5/6 experiments);
* ``op='write'``  -- winning copies are stamped (value, time) in a
  :class:`~repro.mpc.memory.SharedCopyStore`;
* ``op='read'``   -- winning copies are read and each variable returns
  the value with the freshest timestamp among its accessed majority.

When observability is on (:mod:`repro.obs`), every batch emits a
``protocol.access`` span and per-phase ``protocol.phase`` spans carrying
the live-history trajectory ``R_k``; when off, the run pays one guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import repro.obs as _obs
from repro.faults.report import DEGRADED, LOST, FaultReport
from repro.mpc.machine import MPC
from repro.mpc.memory import SharedCopyStore
from repro.mpc.stats import MPCStats

__all__ = ["PhaseTrace", "AccessResult", "run_access_protocol"]

#: Values are packed with timestamps into one int64 during reads:
#: value in [0, 2^32), timestamp in [0, 2^31).
VALUE_LIMIT = 1 << 32


@dataclass
class PhaseTrace:
    """Per-phase telemetry.

    ``live_history[k]`` is the number of live (unsatisfied) variables
    after iteration ``k``; ``live_history[0]`` is the phase's initial
    variable count, so ``iterations == len(live_history) - 1``.
    """

    iterations: int
    live_history: list[int] = field(default_factory=list)


@dataclass
class AccessResult:
    """Outcome of one parallel access operation (a batch of requests)."""

    op: str
    n_requests: int
    q: int
    phases: list[PhaseTrace]
    values: np.ndarray | None
    mpc_stats: MPCStats
    #: request positions that could not reach their quorum because too
    #: many of their copies sit in failed modules (empty when healthy)
    unsatisfiable: np.ndarray | None = None
    #: per-variable satisfied/degraded/lost classification; populated
    #: only when the run had faults injected (None on the healthy path)
    fault_report: FaultReport | None = None
    #: execution engine that produced this result ('vector' | 'scalar')
    engine: str = "vector"

    @property
    def iterations_per_phase(self) -> list[int]:
        """Iteration count of each of the q + 1 phases."""
        return [p.iterations for p in self.phases]

    @property
    def max_phase_iterations(self) -> int:
        """``Phi`` -- the paper's per-phase worst case."""
        return max((p.iterations for p in self.phases), default=0)

    @property
    def total_iterations(self) -> int:
        """Total module-cycle count across all phases (the MPC time spent
        in the iteration loops)."""
        return sum(p.iterations for p in self.phases)

    def modeled_steps(self, N: int, addressing_steps: int | None = None) -> int:
        """The paper's cost model ``O(q (Phi log q + log N))``: per phase,
        every iteration costs a cluster-coordination factor
        ``ceil(log2(q + 1)) + 1`` and the phase pays one address
        computation of ``O(log N)`` steps."""
        coord = math.ceil(math.log2(self.q + 1)) + 1
        addr = addressing_steps if addressing_steps is not None else math.ceil(
            math.log2(max(2, N))
        )
        return sum(p.iterations * coord + addr for p in self.phases)


def run_access_protocol(
    module_ids: np.ndarray,
    n_modules: int,
    majority: int,
    *,
    op: str = "count",
    slots: np.ndarray | None = None,
    store: SharedCopyStore | None = None,
    values: np.ndarray | None = None,
    time: int = 0,
    arbitration: str = "lowest",
    seed: int = 0,
    collect_history: bool = True,
    max_iterations: int = 10_000_000,
    n_phases: int | None = None,
    failed_modules: np.ndarray | None = None,
    allow_partial: bool = False,
    grey_modules: np.ndarray | None = None,
    retry_limit: int | None = None,
    var_ids: np.ndarray | None = None,
    engine: str | None = None,
) -> AccessResult:
    """Run the q+1-phase majority protocol for one batch of requests.

    Parameters
    ----------
    module_ids:
        ``(V, q+1)`` int64 array: the module of each copy of each of the
        ``V`` *distinct* requested variables, in copy order.
    n_modules:
        Module count ``N`` of the machine.
    majority:
        Copies that must be accessed per variable (``q/2 + 1``).
    op:
        ``'count'``, ``'read'`` or ``'write'``.
    slots:
        ``(V, q+1)`` physical slot of each copy -- required for
        read/write with a ``store``.
    store:
        The timestamped copy cells (required for read/write).
    values:
        ``(V,)`` values to write (op='write').
    time:
        Logical timestamp for this batch (strictly increase it across
        batches; reads break ties toward the larger stamp).
    arbitration, seed:
        Module arbitration policy (see :mod:`repro.mpc.arbitration`).
    collect_history:
        Record the live-variable trajectory R_k of every phase.
    n_phases:
        Override the phase count (default ``q + 1``, the paper's cluster
        structure).  ``n_phases=1`` stresses a single phase with all
        ``V`` variables live at once -- used by the recurrence-(2)
        experiments, which need a controlled ``R_0``.
    failed_modules:
        Module ids that never serve (fault injection).  Ids must be
        unique and in ``[0, n_modules)`` -- out-of-range or duplicate
        ids raise :class:`ValueError` at this boundary instead of
        flowing silently into the masks.  A variable remains
        satisfiable while >= ``majority`` of its copies live in healthy
        modules -- the fault tolerance the majority discipline inherits
        from [Tho79].
    allow_partial:
        When some variable cannot reach its quorum (too many failed
        copies, or the ``retry_limit`` ran out): raise
        :class:`ValueError` if False (default), else finish the others
        and report the casualties in ``result.unsatisfiable`` (their
        read values stay -1).
    grey_modules:
        ``(n_modules,)`` serve periods for grey ("slow") modules: a
        module with period ``j >= 2`` answers only every j-th iteration
        of a phase; period 1 is healthy.  Nothing dies -- affected
        variables pay extra iterations, accounted as *degraded* in the
        run's :class:`~repro.faults.report.FaultReport`.
    retry_limit:
        Bounded retry: a variable still unsatisfied after this many
        iterations of its phase is declared *lost* (reported via
        ``allow_partial`` semantics) instead of being retried forever.
    var_ids:
        ``(V,)`` global variable ids of the requests, used only to label
        the per-operation ``mem.op`` trace events consumed by the
        conformance checker (:mod:`repro.conformance`).  Defaults to the
        batch positions.  Events are emitted only for read/write ops and
        only while a recording tracer is installed, so the healthy path
        pays nothing extra.
    engine:
        ``'vector'`` (numpy batch execution, the default), ``'scalar'``
        (the pure-Python per-processor oracle), or None to resolve via
        ``$REPRO_ENGINE`` -- see :mod:`repro.core.engine`.  Both
        engines produce bit-identical results by construction; the
        differential suite enforces it.

    Returns
    -------
    :class:`AccessResult` -- iteration counts, histories, and read values.
    """
    from repro.core.engine import resolve_engine, run_phase_scalar

    eng = resolve_engine(engine)
    phase_runner = _run_phase if eng == "vector" else run_phase_scalar
    module_ids = np.asarray(module_ids, dtype=np.int64)
    if module_ids.ndim != 2:
        raise ValueError("module_ids must be (V, q+1)")
    V, copies = module_ids.shape
    q = copies - 1
    if not 1 <= majority <= copies:
        raise ValueError(f"majority {majority} out of [1, {copies}]")
    if op not in ("count", "read", "write"):
        raise ValueError(f"unknown op {op!r}")
    if op in ("read", "write"):
        if store is None or slots is None:
            raise ValueError(f"op={op!r} requires store and slots")
        slots = np.asarray(slots, dtype=np.int64)
        if slots.shape != module_ids.shape:
            raise ValueError("slots must match module_ids shape")
    if op == "write":
        if values is None:
            raise ValueError("op='write' requires values")
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (V,):
            raise ValueError("values must be shape (V,)")
        if np.any((values < 0) | (values >= VALUE_LIMIT)):
            raise ValueError("write values must be in [0, 2^32)")

    mpc = MPC(n_modules, arbitration=arbitration, seed=seed)
    out_values = (
        np.full(V, -1, dtype=np.int64) if op == "read" else None
    )

    # Fault injection: copies in failed modules are permanently dead.
    dead_copy = None
    unsatisfiable = None
    failed_arr = None
    if failed_modules is not None and len(failed_modules) > 0:
        failed_arr = np.asarray(failed_modules, dtype=np.int64).reshape(-1)
        if np.any((failed_arr < 0) | (failed_arr >= n_modules)):
            raise ValueError(
                f"failed_modules ids must be in [0, {n_modules}); got "
                f"values outside the module pool"
            )
        if np.unique(failed_arr).size != failed_arr.size:
            raise ValueError("failed_modules contains duplicate module ids")
        failed_mask = np.zeros(n_modules, dtype=bool)
        failed_mask[failed_arr] = True
        dead_copy = failed_mask[module_ids]  # (V, copies)
        alive_per_var = copies - dead_copy.sum(axis=1)
        doomed = alive_per_var < majority
        if np.any(doomed):
            if not allow_partial:
                raise ValueError(
                    f"{int(doomed.sum())} variables cannot reach quorum "
                    f"{majority} with the given failed modules; pass "
                    f"allow_partial=True to proceed without them"
                )
            unsatisfiable = np.nonzero(doomed)[0].astype(np.int64)

    # Grey (slow) modules: serve-period array, normalized to None when
    # every period is 1 so the trivial case keeps the healthy hot path.
    grey = None
    if grey_modules is not None:
        grey = np.asarray(grey_modules, dtype=np.int64).reshape(-1)
        if grey.shape != (n_modules,):
            raise ValueError(
                f"grey_modules must have shape ({n_modules},), one serve "
                f"period per module"
            )
        if np.any(grey < 1):
            raise ValueError("grey_modules periods must be >= 1")
        if np.all(grey <= 1):
            grey = None
    if retry_limit is not None and retry_limit < 1:
        raise ValueError("retry_limit must be >= 1")

    # Degraded-mode bookkeeping, allocated only when faults are active.
    faults_on = dead_copy is not None or grey is not None
    track = faults_on or retry_limit is not None
    out_lost = np.zeros(V, dtype=bool) if track else None
    out_sat = np.full(V, -1, dtype=np.int64) if track else None

    phase_count = copies if n_phases is None else n_phases
    if phase_count < 1:
        raise ValueError("n_phases must be >= 1")
    phases: list[PhaseTrace] = []
    obs_on = _obs.enabled()
    led = _obs.ledger() if obs_on else None
    with _obs.span(
        "protocol.access", op=op, requests=V, q=q, phases=phase_count,
        engine=eng,
    ) as acc_span:
        for k in range(phase_count):
            phase_vars = np.arange(V, dtype=np.int64)[
                np.arange(V) % phase_count == k
            ]
            with _obs.span(
                "protocol.phase", phase=k, variables=int(phase_vars.size)
            ) as ph_span:
                trace = phase_runner(
                    phase_vars,
                    module_ids,
                    slots,
                    mpc,
                    majority,
                    op,
                    store,
                    values,
                    out_values,
                    time,
                    collect_history,
                    max_iterations,
                    dead_copy,
                    grey,
                    retry_limit,
                    allow_partial,
                    out_lost,
                    out_sat,
                )
                ph_span.add(
                    iterations=trace.iterations,
                    live_history=list(trace.live_history),
                )
            phases.append(trace)
        acc_span.add(total_iterations=sum(p.iterations for p in phases))
    fault_report = None
    if track:
        lost_idx = np.nonzero(out_lost)[0].astype(np.int64)
        unsatisfiable = lost_idx if lost_idx.size else None
        if faults_on:
            fault_report = _build_fault_report(
                module_ids, dead_copy, grey, failed_arr, out_lost, out_sat,
                retry_limit,
            )
    if obs_on and op != "count":
        _emit_mem_ops(
            op, var_ids, V, phase_count, out_values, values, out_lost, time
        )
        b = _obs.bus()
        if b is not None:
            _publish_health(
                b, op, time, V, copies, majority, n_modules, mpc.stats,
                phases, dead_copy, unsatisfiable, fault_report,
            )
    if obs_on and _obs.metrics_enabled():
        m = _obs.metrics()
        m.counter("protocol.accesses", op=op).inc()
        m.counter("protocol.iterations").inc(sum(p.iterations for p in phases))
        hist = m.histogram("protocol.phase_iterations")
        for p in phases:
            hist.observe(p.iterations)
        if unsatisfiable is not None:
            m.counter("protocol.lost_variables").inc(int(unsatisfiable.size))
    if led is not None:
        rec = led.record_batch(
            op=op,
            requests=V,
            copies=copies,
            majority=majority,
            modules=n_modules,
            rounds=sum(p.iterations for p in phases),
            phi=max((p.iterations for p in phases), default=0),
            stats=mpc.stats,
        )
        _obs.publish("ledger.batch", **rec.event_fields())

    return AccessResult(
        op=op,
        n_requests=V,
        q=q,
        phases=phases,
        values=out_values,
        mpc_stats=mpc.stats,
        unsatisfiable=unsatisfiable,
        fault_report=fault_report,
        engine=eng,
    )


def _emit_mem_ops(
    op: str,
    var_ids: np.ndarray | None,
    V: int,
    phase_count: int,
    out_values: np.ndarray | None,
    values: np.ndarray | None,
    out_lost: np.ndarray | None,
    time: int,
) -> None:
    """One ``mem.op`` trace event per request of a read/write batch.

    The event is the checker-facing record of what the memory *did*:
    ``var`` (global id), ``value`` (written, or observed by the read),
    ``round`` (the batch's logical timestamp), ``proc`` (the requesting
    position -- the cluster member in charge), ``phase`` (the protocol
    phase that served it) and ``lost`` (quorum lost, value invalid).
    """
    tr = _obs.tracer()
    if not tr.enabled and _obs.bus() is None:
        return
    ids = (
        np.arange(V, dtype=np.int64)
        if var_ids is None
        else np.asarray(var_ids, dtype=np.int64).reshape(-1)
    )
    if ids.shape[0] != V:
        raise ValueError(f"var_ids must have shape ({V},)")
    vals = out_values if op == "read" else values
    for i in range(V):
        _obs.publish(
            "mem.op",
            op=op,
            var=int(ids[i]),
            value=int(vals[i]),
            round=int(time),
            proc=i,
            phase=i % phase_count,
            lost=bool(out_lost[i]) if out_lost is not None else False,
        )


def _publish_health(
    b,
    op: str,
    time: int,
    V: int,
    copies: int,
    majority: int,
    n_modules: int,
    stats,
    phases: list[PhaseTrace],
    dead_copy: np.ndarray | None,
    unsatisfiable: np.ndarray | None,
    fault_report,
) -> None:
    """One bus-only ``protocol.health`` event per read/write batch.

    Bus-only on purpose: recorded traces keep their existing schema
    byte-for-byte, while live consumers (:class:`repro.obs.stream.
    HealthAggregator`) get the per-batch gauges.  ``load_skew`` is
    ``100 x max_congestion / (served / (modules x steps))`` -- 100
    means perfectly balanced, larger means hotter hot spots.
    ``quorum_margin`` is the worst variable's live copies beyond the
    majority (0 = one more failure loses data).
    """
    if not _obs.enabled():
        return
    total_iters = sum(p.iterations for p in phases)
    served = int(stats.served)
    skew = (
        int(round(100 * stats.max_congestion * n_modules * stats.steps
                  / served))
        if served
        else 0
    )
    if dead_copy is not None:
        margin = int((copies - dead_copy.sum(axis=1)).min()) - majority
    else:
        margin = copies - majority
    degraded = 0
    if fault_report is not None:
        degraded = int(np.count_nonzero(fault_report.outcomes == DEGRADED))
    b.publish(
        "protocol.health",
        {
            "op": op,
            "round": int(time),
            "requests": V,
            "copies": copies,
            "majority": majority,
            "modules": n_modules,
            "iterations": total_iters,
            "served": served,
            "max_congestion": int(stats.max_congestion),
            "load_skew": skew,
            "lost": int(unsatisfiable.size) if unsatisfiable is not None else 0,
            "degraded": degraded,
            "quorum_margin": margin,
        },
    )


def _build_fault_report(
    module_ids: np.ndarray,
    dead_copy: np.ndarray | None,
    grey: np.ndarray | None,
    failed_arr: np.ndarray | None,
    lost: np.ndarray,
    sat_iter: np.ndarray,
    retry_limit: int | None,
) -> FaultReport:
    """Classify every variable of a faulty run (satisfied/degraded/lost)
    and collect the faulty modules implicated in the damage."""
    V = module_ids.shape[0]
    dead_counts = (
        dead_copy.sum(axis=1).astype(np.int64)
        if dead_copy is not None
        else np.zeros(V, dtype=np.int64)
    )
    grey_counts = (
        (grey[module_ids] > 1).sum(axis=1).astype(np.int64)
        if grey is not None
        else np.zeros(V, dtype=np.int64)
    )
    outcomes = np.zeros(V, dtype=np.int8)
    affected = (dead_counts > 0) | (grey_counts > 0)
    outcomes[affected] = DEGRADED
    outcomes[lost] = LOST
    touched = module_ids[affected | lost]
    implicated: list[np.ndarray] = []
    if failed_arr is not None and touched.size:
        implicated.append(np.intersect1d(touched, failed_arr))
    if grey is not None and touched.size:
        grey_ids = np.nonzero(grey > 1)[0]
        implicated.append(np.intersect1d(touched, grey_ids))
    modules = (
        np.unique(np.concatenate(implicated)).astype(np.int64)
        if implicated
        else np.empty(0, dtype=np.int64)
    )
    return FaultReport(
        outcomes=outcomes,
        dead_copies=dead_counts,
        grey_copies=grey_counts,
        satisfied_at=sat_iter,
        implicated_modules=modules,
        retry_limit=retry_limit,
    )


def _run_phase(
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
    """One phase: iterate until every variable of the phase is satisfied
    (or unsatisfiable because its live copies cannot reach the quorum,
    or the bounded retry budget runs out).
    """
    P = phase_vars.shape[0]
    copies = module_ids.shape[1]
    history = [P] if collect_history else []
    if P == 0:
        return PhaseTrace(iterations=0, live_history=history)

    mods = module_ids[phase_vars]  # (P, copies)
    slts = slots[phase_vars] if slots is not None else None
    accessed = np.zeros((P, copies), dtype=bool)
    hit_count = np.zeros(P, dtype=np.int64)
    satisfied = np.zeros(P, dtype=bool)
    doomed = np.zeros(P, dtype=bool)
    if dead_copy is not None:
        dead = dead_copy[phase_vars]
        accessed |= dead  # dead copies are never requested...
        # ...and variables that cannot reach the quorum are terminally
        # resolved up front so the phase can end (caller reports them).
        doomed = (copies - dead.sum(axis=1)) < majority
        satisfied |= doomed
    # lost grows past the upfront doomed set only on retry exhaustion
    lost = doomed if retry_limit is None else doomed.copy()
    sat_local = np.full(P, -1, dtype=np.int64) if out_sat is not None else None
    # Read bookkeeping: freshest (stamp, value) packed into one int64.
    best_packed = np.full(P, -1, dtype=np.int64) if op == "read" else None

    # Flattened task view
    task_var = np.repeat(np.arange(P, dtype=np.int64), copies)
    task_copy = np.tile(np.arange(copies, dtype=np.int64), P)
    task_mod = mods.reshape(-1)
    task_slot = slts.reshape(-1) if slts is not None else None

    iterations = 0
    while not np.all(satisfied):
        if iterations >= max_iterations:  # pragma: no cover
            raise RuntimeError("protocol exceeded max_iterations")
        if retry_limit is not None and iterations >= retry_limit:
            # Bounded retry exhausted: declare the stragglers lost so
            # the phase terminates instead of spinning on them.
            still = ~satisfied
            if not allow_partial:
                raise ValueError(
                    f"{int(still.sum())} variables did not reach quorum "
                    f"{majority} within retry_limit={retry_limit} "
                    f"iterations; pass allow_partial=True to proceed "
                    f"without them"
                )
            lost |= still
            satisfied |= still
            break
        active = (~accessed.reshape(-1)) & (~satisfied[task_var])
        idx_active = np.nonzero(active)[0]
        if grey is None:
            winners_local = mpc.step(task_mod[idx_active])
        else:
            # a grey module with period j answers only on iterations
            # where (iteration + 1) % j == 0 (healthy period-1 modules
            # always answer)
            winners_local = mpc.step(
                task_mod[idx_active], blocked=((iterations + 1) % grey) != 0
            )
        win = idx_active[winners_local]
        # mark copies accessed
        accessed[task_var[win], task_copy[win]] = True
        np.add.at(hit_count, task_var[win], 1)
        if op == "write":
            store.write(
                task_mod[win], task_slot[win], values[phase_vars[task_var[win]]], time
            )
        elif op == "read":
            vals, stamps = store.read(task_mod[win], task_slot[win])
            packed = np.where(stamps < 0, np.int64(-1), (stamps << 32) | vals)
            np.maximum.at(best_packed, task_var[win], packed)
        satisfied = lost | (hit_count >= majority)
        iterations += 1
        if sat_local is not None:
            newly = satisfied & (sat_local < 0) & ~lost
            sat_local[newly] = iterations
        if collect_history:
            history.append(int(np.count_nonzero(~satisfied)))

    if op == "read":
        read_vals = np.where(best_packed < 0, np.int64(-1), best_packed & 0xFFFFFFFF)
        out_values[phase_vars] = read_vals
    if out_lost is not None:
        out_lost[phase_vars] = lost
    if out_sat is not None:
        out_sat[phase_vars] = sat_local
    return PhaseTrace(iterations=iterations, live_history=history)
