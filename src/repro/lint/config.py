"""Path-scoped configuration for the determinism lint engine.

The rules encode *where* an invariant holds as much as *what* it is:
float arithmetic is fine in ``repro/analysis`` (curve fitting) but a
correctness hazard in ``repro/gf`` field code; unseeded randomness is
the whole point of ``repro/workloads`` but forbidden in the protocol.
This module centralizes those zones so rules, tests, and docs agree.

Paths are compared as ``repro/<package>/...`` relative module paths --
:func:`module_relpath` derives that form from any on-disk location, so
fixture trees in test temp dirs scope exactly like the real package.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = [
    "DETERMINISTIC_ZONES",
    "RANDOMNESS_ALLOWED_ZONES",
    "FIELD_ARITHMETIC_ZONES",
    "ENGINE_ARITHMETIC_ZONES",
    "PROTOCOL_ZONES",
    "ASYNC_ATOMICITY_ZONES",
    "LOSS_BOUNDARY_ZONES",
    "LOSS_SIGNALS",
    "PARITY_ROOTS",
    "PARITY_EXEMPT_ZONES",
    "LintConfig",
    "module_relpath",
    "in_zone",
]

#: Packages whose outputs must be bit-identical across runs (D1, D4):
#: the PGL2(q^n) organization, field arithmetic, the MPC, the majority
#: protocol, every scheme the differential fuzzer cross-checks, and the
#: service layer (round admission and arbitration must replay exactly).
DETERMINISTIC_ZONES: tuple[str, ...] = (
    "repro/core",
    "repro/mpc",
    "repro/schemes",
    "repro/pgl",
    "repro/gf",
    "repro/kvstore",
    "repro/service",
)

#: Packages allowed to *construct* randomized plans (always from an
#: explicit seed -- F2 still flags module-level entropy there).
RANDOMNESS_ALLOWED_ZONES: tuple[str, ...] = (
    "repro/workloads",
    "repro/faults",
)

#: Exact integer arithmetic only (D3): GF(2^m) field code and the PGL2
#: coset algebra, where a float round-trip silently corrupts codes.
FIELD_ARITHMETIC_ZONES: tuple[str, ...] = (
    "repro/gf",
    "repro/pgl",
)

#: Integer-exact engine modules in core/ (D3 as well): the round-loop
#: executors work on int64 module ids, packed (stamp, value) words, and
#: iteration counters -- a float literal or true division there would
#: corrupt packed words above 2^53 exactly like in field code.  Scoped
#: to the engine files, not all of ``repro/core``: bounds/verification
#: legitimately use float math for the N^{1/3} envelope shapes.
ENGINE_ARITHMETIC_ZONES: tuple[str, ...] = (
    "repro/core/engine.py",
)

#: Protocol and storage paths where a swallowed exception can convert a
#: lost quorum into a silently-wrong answer (F3).
PROTOCOL_ZONES: tuple[str, ...] = (
    "repro/core",
    "repro/mpc",
    "repro/kvstore",
    "repro/schemes",
    "repro/service",
)


#: Packages whose async code mutates state other tasks also touch (F1):
#: the asyncio service front end and the streaming watchdog.  A guard
#: tested before an ``await`` proves nothing after it -- another task
#: may have run across the suspension point.
ASYNC_ATOMICITY_ZONES: tuple[str, ...] = (
    "repro/service",
    "repro/conformance",
)

#: Where a loss signal escaping unhandled reaches *users* (F3): the
#: service package is the outermost layer before client code, so every
#: public function there must handle QuorumLostError/RequestLost, map
#: it to STATUS_LOST, or declare it ("Raises QuorumLostError") in its
#: docstring.
LOSS_BOUNDARY_ZONES: tuple[str, ...] = (
    "repro/service",
)

#: The loss-signal typestate F3 tracks: the machine fact (a shard lost
#: its write/read quorum) and its client-visible mapping.
LOSS_SIGNALS: tuple[str, ...] = (
    "QuorumLostError",
    "RequestLost",
)

#: The two round-loop executors whose *shared* callee surface F4
#: audits: code reachable from both must stay exact-integer and
#: order-insensitive or the differential harness can diverge.
PARITY_ROOTS: tuple[str, ...] = (
    "repro/core/engine.py::run_phase_scalar",
    "repro/core/protocol.py::_run_phase",
)

#: Shared-surface modules F4 does not flag: instrumentation sinks whose
#: float math never feeds simulation state.  The executor files are
#: audited like any other shared callee (``engine.py`` is also under
#: D3 through :data:`ENGINE_ARITHMETIC_ZONES`).
PARITY_EXEMPT_ZONES: tuple[str, ...] = (
    "repro/mpc/stats.py",
    "repro/obs",
)


def module_relpath(path: str) -> str:
    """Normalize ``path`` to the ``repro/...`` module-relative form.

    Finds the last ``repro`` segment of the path; a file outside any
    ``repro`` tree keeps its basename (only unscoped rules apply then).
    """
    parts = os.path.normpath(path).replace(os.sep, "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return parts[-1]


def in_zone(relpath: str, zones: tuple[str, ...]) -> bool:
    """True iff ``relpath`` (from :func:`module_relpath`) is under any
    of the zone prefixes."""
    return any(
        relpath == z or relpath.startswith(z + "/") for z in zones
    )


@dataclass
class LintConfig:
    """Engine configuration: rule selection and baseline location.

    ``select`` limits the run to the listed rule ids (None = all);
    ``ignore`` drops rules after selection.  ``baseline_path`` is the
    committed grandfather file (None = no baseline applied).
    """

    select: frozenset[str] | None = None
    ignore: frozenset[str] = frozenset()
    baseline_path: str | None = None
    #: extra per-rule zone overrides: rule id -> tuple of path prefixes
    #: replacing the rule's built-in scope (used by tests)
    zone_overrides: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: engine-parity roots for F4 (qualified ``path::func`` names);
    #: None = the built-in :data:`PARITY_ROOTS`
    parity_roots: tuple[str, ...] | None = None

    def rule_enabled(self, rule_id: str) -> bool:
        """Apply ``select`` then ``ignore`` to one rule id."""
        if self.select is not None and rule_id not in self.select:
            return False
        return rule_id not in self.ignore

    def zones_for(self, rule_id: str, default: tuple[str, ...]) -> tuple[str, ...]:
        """The rule's zone scope, with any per-rule override applied."""
        return self.zone_overrides.get(rule_id, default)
