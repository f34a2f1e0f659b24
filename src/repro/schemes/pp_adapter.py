"""The paper's scheme wrapped in the common baseline interface.

:class:`~repro.core.scheme.PPScheme` has a richer API (physical slots,
O(log N) addressing); the adapter exposes just the
:class:`~repro.schemes.base.MemoryScheme` surface so the comparison
harness can iterate over all schemes uniformly.  Unlike the baselines
it uses the dense slot layout of Section 4, so ``make_store`` returns
the real dense store.
"""

from __future__ import annotations

import numpy as np

from repro.core.scheme import PPScheme
from repro.schemes.base import MemoryScheme

__all__ = ["PPAdapter"]


class PPAdapter(MemoryScheme):
    """Pietracaprina-Preparata scheme behind the MemoryScheme interface."""

    name = "pietracaprina-preparata"

    def __init__(self, q: int = 2, n: int = 5):
        self.scheme = PPScheme(q=q, n=n)
        self.N = self.scheme.N
        self.M = self.scheme.M
        self.copies_per_variable = self.scheme.copies_per_variable
        self.read_quorum = self.scheme.majority
        self.write_quorum = self.scheme.majority

    def placement(self, indices: np.ndarray) -> np.ndarray:
        """``(V, q+1)`` module ids via the O(log N) addressing layer."""
        return self.scheme.module_ids_for(indices)

    def placement_and_slots(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Modules and physical Lemma-4 slots (dense layout) from one
        unrank per variable."""
        return self.scheme.placement_for(indices)

    def make_store(self) -> object:
        """Dense (N x q^{n-1}) timestamped store."""
        return self.scheme.make_store()
