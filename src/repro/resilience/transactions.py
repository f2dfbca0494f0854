"""Undo journal making one streaming update atomic.

:class:`DynamicBC` mutates four things while applying an update: the
dynamic graph (one edge), the per-source state rows ``d/sigma/delta``
(only for sources with real work — the Case-2/3 minority, Fig. 2), the
shared BC score vector, and the aggregate kernel counters.  The journal
captures exactly those pieces *lazily* — the score vector once per
update (one O(n) memcpy), the state rows only of sources about to
execute (all of an update's active rows in one gather per array, see
:meth:`UpdateTransaction.save_rows`) — so the common all-Case-1 update
pays one vector copy and nothing else.

On failure the journal restores every captured piece and undoes the
edge mutation, leaving the engine bit-identical to its pre-update
state (see ``tests/test_resilience_transactions.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np


class UpdateTransaction:
    """Rollback journal for one ``insert``/``delete`` update.

    The engine opens one transaction per update *after* the graph
    mutation has been applied, registers the state rows before the
    update touches them (:meth:`save_rows` for the executor's active
    rows, :meth:`save_row` per source on the looped path), and calls
    :meth:`rollback` if anything raises.
    """

    def __init__(self, engine, u: int, v: int, operation: str) -> None:
        self._engine = engine
        self._u = int(u)
        self._v = int(v)
        self._operation = operation
        self._bc = engine.state.bc.copy()
        self._counters = engine.counters
        self._rows: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        #: rows journaled in bulk by :meth:`save_rows`: their indices
        #: and one ``(len, n)`` copy per state array
        self._bulk: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray]] = None
        #: index of the source row being executed (for UpdateError)
        self.current_source: int = -1

    def save_row(self, i: int) -> None:
        """Journal source row *i*'s state arrays (idempotent)."""
        self.current_source = i
        if i in self._rows or self._bulk_position(i) is not None:
            return
        st = self._engine.state
        self._rows[i] = (st.d[i].copy(), st.sigma[i].copy(), st.delta[i].copy())

    def save_rows(self, indices: np.ndarray) -> None:
        """Journal every row in *indices* (ascending, distinct) with one
        fancy-index gather per state array instead of three copies per
        row.  Called once per update, before any of the rows is
        written; :meth:`save_row` still journals rows outside the
        set."""
        indices = np.asarray(indices, dtype=np.int64)
        st = self._engine.state
        self._bulk = (indices, st.d[indices], st.sigma[indices],
                      st.delta[indices])

    def _bulk_position(self, i: int) -> Optional[int]:
        if self._bulk is None:
            return None
        indices = self._bulk[0]
        pos = int(np.searchsorted(indices, i))
        if pos < indices.size and indices[pos] == i:
            return pos
        return None

    def restore_row(self, i: int) -> None:
        """Write source row *i*'s journaled bytes back in place (no-op
        for unjournaled rows) **without** ending the transaction.

        This is the supervisor's chunk-reset primitive: before a
        failed pool round is retried, every pending chunk's rows are
        restored to their pre-update values so the re-execution is
        bit-identical to a first attempt.  The restore writes through
        the live arrays — shared-memory views included — so workers
        see the reset bytes too.
        """
        i = int(i)
        st = self._engine.state
        row = self._rows.get(i)
        if row is not None:
            st.d[i], st.sigma[i], st.delta[i] = row
            return
        pos = self._bulk_position(i)
        if pos is not None:
            _, d, sigma, delta = self._bulk
            st.d[i], st.sigma[i], st.delta[i] = d[pos], sigma[pos], delta[pos]

    def rollback(self) -> None:
        """Restore graph, journaled rows, BC scores and counters."""
        engine = self._engine
        st = engine.state
        if self._bulk is not None:
            indices, d, sigma, delta = self._bulk
            st.d[indices] = d
            st.sigma[indices] = sigma
            st.delta[indices] = delta
        for i, (d, sigma, delta) in self._rows.items():
            st.d[i] = d
            st.sigma[i] = sigma
            st.delta[i] = delta
        st.bc[:] = self._bc
        engine.counters = self._counters
        # Undo the edge mutation last so the snapshot cache is patched
        # back into its pre-update form.
        if self._operation == "insert":
            engine.graph.delete_edge(self._u, self._v)
        else:
            engine.graph.insert_edge(self._u, self._v)
