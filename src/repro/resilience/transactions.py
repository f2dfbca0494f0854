"""Undo journal making one streaming update atomic.

:class:`DynamicBC` mutates four things while applying an update: the
dynamic graph (one edge), the per-source state rows ``d/sigma/delta``
(only for sources with real work — the Case-2/3 minority, Fig. 2), the
shared BC score vector, and the aggregate kernel counters.  The journal
captures exactly those pieces *lazily* — the score vector once per
update (one O(n) memcpy), and of the state rows only the entries about
to be written, just before they are: the engine's commit journals every
active row's write-set at once, one gather per column into one record
(:meth:`UpdateTransaction.save_commit`), the per-source loop each row
whole (:meth:`UpdateTransaction.save_row`) — so the common all-Case-1
update pays one vector copy and nothing else.

On failure the journal restores every captured piece and undoes the
edge mutation, leaving the engine bit-identical to its pre-update
state (see ``tests/test_resilience_transactions.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


class UpdateTransaction:
    """Rollback journal for one ``insert``/``delete`` update.

    The engine opens one transaction per update *after* the graph
    mutation has been applied, journals state entries just before
    writing them (:meth:`save_commit`, :meth:`save_row`), and calls
    :meth:`rollback` if anything raises.
    """

    def __init__(self, engine, u: int, v: int, operation: str) -> None:
        self._engine = engine
        self._u = int(u)
        self._v = int(v)
        self._operation = operation
        self._bc = engine.state.bc.copy()
        self._counters = engine.counters
        #: per commit: the flat indices into the (k, n) ``d``, ``sigma``
        #: and ``delta`` it wrote, and their old values
        self._commits: List[Tuple[tuple, tuple]] = []
        #: per journaled row: where its entries were journaled (vertex
        #: ids, or the whole row) and their old d, sigma and delta
        self._rows: Dict[int, tuple] = {}
        #: index of the source row being executed (for UpdateError)
        self.current_source: int = -1

    def _columns(self) -> tuple:
        st = self._engine.state
        return st.d, st.sigma, st.delta

    def save_commit(self, at: tuple) -> np.ndarray:
        """Journal ``d``, ``sigma`` and ``delta`` at the flat indices
        *at* (one index array per column, into the ``(k, n)`` state)
        before a commit writes them, as one record with one gather per
        column; returns the journaled δ."""
        old = tuple(column.take(idx)
                    for column, idx in zip(self._columns(), at))
        self._commits.append((at, old))
        return old[2]

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
        """Write row *i*'s :meth:`save_row` journal back where it came
        from (a no-op for a row without one) **without** ending the
        transaction; :meth:`rollback` calls it for every such row."""
        i = int(i)
        saved = self._rows.get(i)
        if saved is not None:
            at, d, sigma, delta = saved
            st = self._engine.state
            st.d[i, at] = d
            st.sigma[i, at] = sigma
            st.delta[i, at] = delta

    def rollback(self) -> None:
        """Restore graph, journaled entries, BC scores and counters."""
        engine = self._engine
        for at, old in reversed(self._commits):
            for column, idx, values in zip(self._columns(), at, old):
                np.put(column, idx, values)
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
