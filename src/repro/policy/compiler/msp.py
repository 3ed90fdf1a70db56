"""Monotone span programs (paper Definition 5.3, Algorithms 5 and 6).

A monotone span program (MSP) for a monotone boolean function Y over a
prime field is a matrix **M** with rows labeled by attributes such that
``Y(attrs) = 1`` iff the rows labeled by ``attrs`` span the target vector
``e1 = (1, 0, ..., 0)``.

Construction (insertion method, compatible with the paper's Algorithm 6
bookkeeping):

* leaf ``a``      -> the 1x1 matrix ``[1]`` labeled ``a``;
* ``OR(e1..en)``  -> base matrix = the nx1 all-ones column;
* ``AND(e1..en)`` -> base matrix nxn with column 0 = e0 and column
  k = e_k - e0 (i.e. row 0 = (1,-1,...,-1), row m = e_m for m >= 1);
* children are *inserted* into base rows: child k's row i becomes
  ``child[i][0] * base_row_k`` on the base columns, followed by
  ``child[i][1:]`` in a block of fresh columns.

The purge step of predicate relaxation (Algorithm 6) computes, for a kept
attribute set A', a subset R of rows (labels in A') and a subset C of
columns containing column 0 with ``M . 1_C = 1_R`` — exactly the property
ABS.Relax needs (see repro.abs.relax).  It exists iff ``Y(U \\ A') = 0``
where U is the attribute universe, i.e. iff every satisfying set of Y
intersects A'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.crypto.field import mod_inv
from repro.errors import PolicyError, RelaxationError
from repro.obs import metrics as _metrics
from repro.policy.boolexpr import And, Attr, BoolExpr, Or


@dataclass
class _Node:
    """Layout node: the local MSP of a subexpression plus child offsets."""

    expr: BoolExpr
    matrix: list[list[int]]
    labels: list[str]
    children: list["_Node"] = field(default_factory=list)
    #: Row index (local to this node) where child k's rows start.
    row_offsets: list[int] = field(default_factory=list)
    #: Column index (local) where child k's fresh columns start.
    fresh_offsets: list[int] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return len(self.matrix)

    @property
    def n_cols(self) -> int:
        return len(self.matrix[0])


def _base_matrix(expr: BoolExpr, n: int) -> list[list[int]]:
    if isinstance(expr, Or):
        return [[1] for _ in range(n)]
    # AND: row 0 = (1, -1, ..., -1); row m = e_m.
    rows = []
    for m in range(n):
        if m == 0:
            rows.append([1] + [-1] * (n - 1))
        else:
            rows.append([1 if j == m else 0 for j in range(n)])
    return rows


def _build_node(expr: BoolExpr, order: int) -> _Node:
    if isinstance(expr, Attr):
        return _Node(expr=expr, matrix=[[1]], labels=[expr.name])
    if not isinstance(expr, (And, Or)):
        raise PolicyError(f"unsupported expression node {type(expr).__name__}")
    children = [_build_node(child, order) for child in expr.children]
    n = len(children)
    base = _base_matrix(expr, n)
    n_base = len(base[0])
    total_cols = n_base + sum(child.n_cols - 1 for child in children)
    matrix: list[list[int]] = []
    labels: list[str] = []
    row_offsets: list[int] = []
    fresh_offsets: list[int] = []
    col_cursor = n_base
    for k, child in enumerate(children):
        row_offsets.append(len(matrix))
        fresh_offsets.append(col_cursor)
        fresh = child.n_cols - 1
        for i, row in enumerate(child.matrix):
            new_row = [row[0] * base[k][j] % order for j in range(n_base)]
            new_row += [0] * (col_cursor - n_base)
            new_row += [v % order for v in row[1:]]
            new_row += [0] * (total_cols - len(new_row))
            matrix.append(new_row)
            labels.append(child.labels[i])
        col_cursor += fresh
    return _Node(
        expr=expr,
        matrix=matrix,
        labels=labels,
        children=children,
        row_offsets=row_offsets,
        fresh_offsets=fresh_offsets,
    )


def _purge_node(node: _Node, kept: frozenset[str]) -> tuple[bool, set[int], set[int]]:
    """Recursive purge; returns (qualified, kept_rows, kept_cols) locally.

    Invariants when ``qualified`` is True:
    * every kept row's label is in ``kept``;
    * column 0 is in ``kept_cols``;
    * ``M . 1_C = 1_R`` for the node's local matrix.
    """
    expr = node.expr
    if isinstance(expr, Attr):
        if expr.name in kept:
            return True, {0}, {0}
        return False, set(), set()
    results = [_purge_node(child, kept) for child in node.children]
    if isinstance(expr, Or):
        if not all(flag for flag, _, _ in results):
            return False, set(), set()
        rows: set[int] = set()
        cols: set[int] = {0}
        for k, (_, child_rows, child_cols) in enumerate(results):
            rows.update(node.row_offsets[k] + i for i in child_rows)
            cols.update(node.fresh_offsets[k] + (j - 1) for j in child_cols if j > 0)
        return True, rows, cols
    # AND: keep exactly one qualified child.
    for k, (flag, child_rows, child_cols) in enumerate(results):
        if not flag:
            continue
        rows = {node.row_offsets[k] + i for i in child_rows}
        cols = {0}
        if k > 0:
            cols.add(k)
        cols.update(node.fresh_offsets[k] + (j - 1) for j in child_cols if j > 0)
        return True, rows, cols
    return False, set(), set()


class Msp:
    """A monotone span program with its layout tree.

    Attributes
    ----------
    matrix:
        The ``l x t`` matrix over ``Z_order`` (entries reduced mod order).
    labels:
        Row labels (attribute names), length ``l``.
    """

    def __init__(self, expr: BoolExpr, order: int):
        self.expr = expr
        self.order = order
        self._root = _build_node(expr, order)
        self.matrix = self._root.matrix
        self.labels = self._root.labels

    @property
    def n_rows(self) -> int:
        return len(self.matrix)

    @property
    def n_cols(self) -> int:
        return len(self.matrix[0])

    def __repr__(self):
        return f"Msp({self.n_rows}x{self.n_cols} for {self.expr})"

    # ------------------------------------------------------------------
    def satisfying_vector(self, attrs: Iterable[str]) -> Optional[list[int]]:
        """A vector v with ``v M = e1`` and ``v_i = 0`` on unsatisfied rows.

        Returns ``None`` when ``attrs`` does not satisfy the policy.  This
        is the vector the ABS signer embeds in the S_i components.
        """
        attrs = set(attrs)
        rows = [i for i, lab in enumerate(self.labels) if lab in attrs]
        if not rows:
            return None
        # Solve x * M_S = e1  <=>  (M_S)^T x = e1^T.
        a = [[self.matrix[i][j] for i in rows] for j in range(self.n_cols)]
        b = [1] + [0] * (self.n_cols - 1)
        x = solve_linear_mod(a, b, self.order)
        if x is None:
            return None
        v = [0] * self.n_rows
        for idx, i in enumerate(rows):
            v[i] = x[idx] % self.order
        return v

    def is_satisfied(self, attrs: Iterable[str]) -> bool:
        """Span-program satisfaction (agrees with ``expr.evaluate``)."""
        return self.satisfying_vector(attrs) is not None

    # ------------------------------------------------------------------
    def purge(self, kept_attrs: Iterable[str]) -> tuple[list[int], list[int]]:
        """Algorithm 6: rows/columns to keep when relaxing to OR(kept_attrs).

        Returns sorted ``(kept_rows, kept_cols)`` with the guarantee
        ``M . 1_C = 1_R``; raises :class:`RelaxationError` when the
        relaxation condition ``Y(U \\ kept_attrs) = 0`` fails.
        """
        kept = frozenset(kept_attrs)
        flag, rows, cols = _purge_node(self._root, kept)
        if not flag:
            raise RelaxationError(
                "predicate cannot be relaxed: policy remains satisfiable "
                "without the kept attributes"
            )
        return sorted(rows), sorted(cols)

    def check_purge_invariant(self, rows: Sequence[int], cols: Sequence[int]) -> bool:
        """Verify ``M . 1_C = 1_R`` (used by tests and defensive checks)."""
        row_set = set(rows)
        col_set = set(cols)
        for i in range(self.n_rows):
            total = sum(self.matrix[i][j] for j in col_set) % self.order
            expected = 1 if i in row_set else 0
            if total != expected:
                return False
        return True


import threading
from collections import OrderedDict
from typing import NamedTuple

_REG = _metrics.registry()
_M_MSP_HITS = _REG.counter(
    "repro_policy_msp_cache_hits_total",
    "MSP cache lookups served from the shared span-program cache.",
)
_M_MSP_MISSES = _REG.counter(
    "repro_policy_msp_cache_misses_total",
    "MSP cache lookups that had to build a fresh span program.",
)

#: Bound on the shared span-program cache (entries, LRU-evicted).
MSP_CACHE_SIZE = 4096


class CacheInfo(NamedTuple):
    """``functools.lru_cache``-compatible cache statistics."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


_msp_lock = threading.Lock()
_msp_cache: "OrderedDict[tuple[BoolExpr, int], Msp]" = OrderedDict()
_msp_hits = 0
_msp_misses = 0


def get_msp(expr: BoolExpr, order: int) -> Msp:
    """Shared, memoized span program for a policy.

    Span programs are rebuilt constantly (every sign, verify, and relax);
    the construction is deterministic and the result is used read-only,
    so instances are safely shared.  Policies hash structurally, making
    repeated signatures over the same policy (the common case: one
    policy per access class) hit the cache.  The cache is LRU-bounded at
    :data:`MSP_CACHE_SIZE` entries and reports
    ``repro_policy_msp_cache_{hits,misses}_total`` through the metrics
    registry (see ``docs/OBSERVABILITY.md``).
    """
    global _msp_hits, _msp_misses
    key = (expr, order)
    with _msp_lock:
        cached = _msp_cache.get(key)
        if cached is not None:
            _msp_hits += 1
            _msp_cache.move_to_end(key)
    if cached is not None:
        _M_MSP_HITS.inc()
        return cached
    built = Msp(expr, order)
    with _msp_lock:
        _msp_misses += 1
        cached = _msp_cache.get(key)
        if cached is None:
            _msp_cache[key] = cached = built
            while len(_msp_cache) > MSP_CACHE_SIZE:
                _msp_cache.popitem(last=False)
    _M_MSP_MISSES.inc()
    return cached


def msp_cache_info() -> CacheInfo:
    """Cache statistics (exposed for the caching ablation and tests)."""
    with _msp_lock:
        return CacheInfo(_msp_hits, _msp_misses, MSP_CACHE_SIZE, len(_msp_cache))


def reset_msp_cache() -> None:
    """Drop every cached span program and zero the counters (tests)."""
    global _msp_hits, _msp_misses
    with _msp_lock:
        _msp_cache.clear()
        _msp_hits = 0
        _msp_misses = 0


def solve_linear_mod(a: list[list[int]], b: list[int], p: int) -> Optional[list[int]]:
    """Solve ``A x = b`` over ``Z_p`` (p prime); any solution or ``None``.

    ``a`` is a list of rows; free variables are set to zero.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    # Augmented matrix, reduced mod p.
    aug = [[a[i][j] % p for j in range(n_cols)] + [b[i] % p] for i in range(n_rows)]
    pivot_cols: list[int] = []
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if aug[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = mod_inv(aug[row][col], p, "the span-program field")
        aug[row] = [v * inv % p for v in aug[row]]
        for r in range(n_rows):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [(vr - factor * vp) % p for vr, vp in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
        if row == n_rows:
            break
    # Consistency: zero rows must have zero RHS.
    for r in range(row, n_rows):
        if aug[r][n_cols] != 0:
            return None
    x = [0] * n_cols
    for r, col in enumerate(pivot_cols):
        x[col] = aug[r][n_cols]
    return x
