"""Undo journal making one streaming update atomic.

:class:`DynamicBC` mutates four things while applying an update: the
dynamic graph (one edge), the per-source state rows ``d/sigma/delta``
(only for sources with real work — the Case-2/3 minority, Fig. 2), the
shared BC score vector, and the aggregate kernel counters.  The journal
captures exactly those pieces *lazily* — the score vector once per
update (one O(n) memcpy), and of a state row only the entries about to
be written, just before they are: the engine's commit journals each
active row at its write-set's keys (:meth:`UpdateTransaction.save_row`),
the per-source loop each row whole — so the common all-Case-1 update
pays one vector copy and nothing else.

On failure the journal restores every captured piece and undoes the
edge mutation, leaving the engine bit-identical to its pre-update
state (see ``tests/test_resilience_transactions.py``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class UpdateTransaction:
    """Rollback journal for one ``insert``/``delete`` update.

    The engine opens one transaction per update *after* the graph
    mutation has been applied, journals each state row just before
    writing it (:meth:`save_row`), and calls :meth:`rollback` if
    anything raises.
    """

    def __init__(self, engine, u: int, v: int, operation: str) -> None:
        self._engine = engine
        self._u = int(u)
        self._v = int(v)
        self._operation = operation
        self._bc = engine.state.bc.copy()
        self._counters = engine.counters
        #: per journaled row: where its entries were journaled (vertex
        #: ids, or the whole row) and their old d, sigma and delta
        self._rows: Dict[int, tuple] = {}
        #: index of the source row being executed (for UpdateError)
        self.current_source: int = -1

    def save_row(self, i: int,
                 keys: Optional[np.ndarray] = None) -> np.ndarray:
        """Journal source row *i*'s ``d``/``sigma``/``delta`` at *keys*
        (vertex ids; the whole row when ``None``) before they are
        written, and return the journaled δ.  A row is journaled once
        per update: a repeated call keeps, and returns, the first
        journal."""
        self.current_source = i
        saved = self._rows.get(i)
        if saved is None:
            st = self._engine.state
            rows = (st.d[i], st.sigma[i], st.delta[i])
            if keys is None:
                saved = (slice(None), *(row.copy() for row in rows))
            else:
                saved = (keys, *(row[keys] for row in rows))
            self._rows[i] = saved
        return saved[3]

    def restore_row(self, i: int) -> None:
        """Write row *i*'s journaled values back where they came from
        (a no-op for an unjournaled row) **without** ending the
        transaction; :meth:`rollback` calls it for every journaled
        row."""
        i = int(i)
        saved = self._rows.get(i)
        if saved is not None:
            at, d, sigma, delta = saved
            st = self._engine.state
            st.d[i, at] = d
            st.sigma[i, at] = sigma
            st.delta[i, at] = delta

    def rollback(self) -> None:
        """Restore graph, journaled rows, BC scores and counters."""
        engine = self._engine
        for i in self._rows:
            self.restore_row(i)
        engine.state.bc[:] = self._bc
        engine.counters = self._counters
        # Undo the edge mutation last so the snapshot cache is patched
        # back into its pre-update form.
        if self._operation == "insert":
            engine.graph.delete_edge(self._u, self._v)
        else:
            engine.graph.insert_edge(self._u, self._v)
