"""One rule for NumPy row tables: grow, reset and reuse a row.

A table declares each column once, as ``(name, dtype, fill)``; the
arrays stay attributes of the table, so reads keep their spelling.  A
row nobody holds is at every column's fill, so a freed row equals a
fresh one, and opening a row writes only what differs.  Zero fills
come from ``np.zeros``, whose pages are mapped lazily: spare rows cost
no memory until used (``np.full`` would touch them all).
"""

from __future__ import annotations

import numpy as np


def _grown(old: np.ndarray, shape, fill) -> np.ndarray:
    """``old`` copied into a new array of ``shape``, filled with ``fill``."""
    if fill == 0:
        new = np.zeros(shape, dtype=old.dtype)
    else:
        new = np.full(shape, fill, dtype=old.dtype)
    new[tuple(map(slice, old.shape))] = old
    return new


class Columns:
    """The rows of the ``columns`` that ``owner`` declares.

    ``linked`` stores are indexed by the same rows and grow and reset
    with this one.  ``slabs`` name ``(attribute, row axis)`` of 2-D ring
    buffers: they grow with the rows (the owner grows the other axis),
    and a reset leaves them, as entries past a ring's count are never
    read.  A freed row's generation moves on, so a view taken before can
    tell it is stale; the generations exist from the first free on.
    """

    def __init__(self, owner, columns, capacity: int, linked, slabs) -> None:
        self._owner = owner
        self._columns = columns
        self._linked = linked
        self._slabs = slabs
        self.capacity = self.n = 0  # n: rows ever handed out
        self._free = []
        self._gen = None
        for name, dtype, _ in columns:
            setattr(owner, name, np.zeros(0, dtype=dtype))
        for name, _ in slabs:
            setattr(owner, name, np.zeros((0, 0)))
        self.grow(capacity)

    def __len__(self) -> int:
        """Rows currently held."""
        return self.n - len(self._free)

    def alloc(self) -> int:
        """A freed row, else the next one (doubling capacity when full)."""
        if self._free:
            return self._free.pop()
        row = self.n
        if row == self.capacity:
            self.grow(row + 1)
        self.n = row + 1
        return row

    def free(self, row: int) -> None:
        """Reset ``row``, move its generation on and keep it for reuse."""
        self.reset(row)
        if self._gen is None:
            self._gen = np.zeros(self.capacity, dtype=np.int64)
        self._gen[row] += 1
        self._free.append(row)

    def generation(self, row: int) -> int:
        return 0 if self._gen is None else self._gen.item(row)

    def reset(self, rows) -> None:
        """Put ``rows`` back to every column's fill."""
        for name, _, fill in self._columns:
            getattr(self._owner, name)[rows] = fill
        for store in self._linked:
            store.reset(rows)

    def grow(self, need: int) -> None:
        """Make room for rows below ``need``, at least doubling."""
        if need <= self.capacity:
            return
        cap = self.capacity = max(need, 2 * self.capacity)
        owner = self._owner
        for name, _, fill in self._columns:
            setattr(owner, name, _grown(getattr(owner, name), cap, fill))
        for name, axis in self._slabs:
            old = getattr(owner, name)
            shape = list(old.shape)
            shape[axis] = cap
            setattr(owner, name, _grown(old, shape, 0))
        if self._gen is not None:
            self._gen = _grown(self._gen, cap, 0)
        for store in self._linked:
            store.grow(cap)
