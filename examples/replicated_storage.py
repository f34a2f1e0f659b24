#!/usr/bin/env python3
"""Replicated parallel storage: worst cases, write costs, and why majority.

The paper's scheme descends from Thomas's majority-consensus replication
for databases [Tho79] via Upfal-Wigderson.  This example plays the
scenarios that motivated that lineage, on the simulated MPC:

1. hot-spot reads -- a single-copy store serializes; replicated
   majority stores disperse;
2. write bursts -- Mehlhorn-Vishkin's update-all-copies rule collapses
   under a crafted write set, the majority rule does not (the paper's
   central improvement over [MV84]);
3. stale copies -- after a write that touched only a majority, a
   minority of copies is stale, yet every subsequent read returns the
   fresh value because quorums intersect.

Run:  python examples/replicated_storage.py
"""

import numpy as np

from repro.analysis.report import Table
from repro.schemes import (
    MehlhornVishkinScheme,
    PPAdapter,
    SingleCopyScheme,
)
from repro.workloads import concentrated_set_for


def main() -> None:
    N, M = 1023, 5456
    pp = PPAdapter(q=2, n=5)
    mv = MehlhornVishkinScheme(N, M, c=3)
    sc = SingleCopyScheme(N, M, hashed=True, seed=1)

    # ------------------------------------------------------ hot-spot reads
    table = Table(
        ["scheme", "workload", "op", "MPC iterations"],
        title="Hot-spot reads: requests aimed at one scheme's weak point",
    )
    hot_size = min(16, sc.max_module_load())
    adv_sc, _ = concentrated_set_for(sc, hot_size)
    table.add_row(["single-copy", "same-module vars", "read",
                   sc.access(adv_sc, op="count").total_iterations])
    # the same 16 *indices* on the PP scheme are nothing special:
    table.add_row(["pietracaprina-preparata", "same 16 indices", "read",
                   pp.access(adv_sc[adv_sc < pp.M], op="count").total_iterations])

    # ------------------------------------------------------- write bursts
    adv_mv = mv.adversarial_write_set(16)
    table.add_row(["mehlhorn-vishkin", "copy-0-collision set", "write",
                   mv.access(adv_mv, op="count", count_as="write").total_iterations])
    table.add_row(["mehlhorn-vishkin", "copy-0-collision set", "read",
                   mv.access(adv_mv, op="count", count_as="read").total_iterations])
    table.add_row(["pietracaprina-preparata", "same 16 indices", "write",
                   pp.access(adv_mv[adv_mv < pp.M], op="count").total_iterations])
    table.print()
    print()
    print(
        "MV reads are cheap (any one copy) but its writes serialize on the\n"
        "shared module because ALL c copies must be refreshed; the majority\n"
        "rule pays the same modest price for reads and writes.\n"
    )

    # ------------------------------------------------- staleness / quorums
    store = pp.make_store()
    idx = pp.random_request_set(512, seed=3)
    pp.write(idx, values=np.full(512, 1), store=store, time=1)
    pp.write(idx, values=np.full(512, 2), store=store, time=2)

    # inspect the physical cells: some copies still hold the old value
    mods, slots = pp.placement_and_slots(idx)
    cell_vals, cell_stamps = store.read(mods, slots)
    stale = int((cell_stamps < 2).sum())
    print(
        f"after the second write: {stale} of {cell_vals.size} physical copies "
        f"are stale (stamp < 2), at most {mods.shape[1] - pp.write_quorum} per variable"
    )
    per_var_fresh = (cell_stamps == 2).sum(axis=1)
    assert (per_var_fresh >= pp.write_quorum).all()

    res = pp.read(idx, store=store, time=3)
    assert (res.values == 2).all()
    print(
        "yet every read returns the fresh value: any read majority "
        "intersects the write majority and timestamps break the tie."
    )


if __name__ == "__main__":
    main()
