"""AP2G-tree: the access-policy-preserving grid tree (paper Section 6.1).

The tree partitions the *public domain* (not the data!) recursively into
grid cells until each cell is a single point, so its shape leaks nothing
about the record distribution.  Every unit cell is a leaf holding either a
real record or a pseudo record (policy ``Role_0``), making the tree always
full — the zero-knowledge property rests on this.

Each node carries (Definition 6.1/6.2):

* ``box``       — its grid box ``gb``;
* ``policy``    — OR of the children's policies (leaf: the record policy),
  kept in minimal DNF so span programs stay small;
* ``signature`` — ``ABS.Sign(sk_DO, hash(gb), policy)`` for non-leaf
  nodes, the record's APP signature for leaves.

The node policy answers "can this user access *anything* inside this
box?", which is what drives subtree pruning during VO construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from typing import TYPE_CHECKING

from repro.abs.scheme import AbsSignature
from repro.core.records import Dataset, Record, make_pseudo_record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.app_signature import AppSigner
from repro.errors import WorkloadError
from repro.index.boxes import Box, Domain, Point
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.trace import Stopwatch
from repro.policy.boolexpr import BoolExpr, Or
from repro.policy.compiler.dnf import from_dnf, to_dnf

_REG = _metrics.registry()
_M_BUILDS = _REG.counter(
    "repro_index_builds_total", "ADS builds, by tree flavour.",
    labelnames=("tree",),
)
_M_NODES = _REG.counter(
    "repro_index_nodes_signed_total", "Nodes signed during ADS builds.",
    labelnames=("tree",),
)


@dataclass
class IndexNode:
    """One AP2G-tree node."""

    box: Box
    policy: BoolExpr
    signature: AbsSignature
    children: tuple["IndexNode", ...] = ()
    record: Optional[Record] = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def accessible_to(self, roles) -> bool:
        return self.policy.evaluate(roles)

    def structure_bytes(self) -> int:
        """Approximate encoding size of box + policy (no signature)."""
        return 16 * self.box.dims + len(self.policy.to_string())


@dataclass
class TreeStats:
    """Build statistics (feeds Table 1)."""

    num_nodes: int = 0
    num_leaves: int = 0
    num_real_records: int = 0
    sign_seconds: float = 0.0
    structure_seconds: float = 0.0
    signature_bytes: int = 0
    structure_bytes: int = 0

    @property
    def index_bytes(self) -> int:
        return self.signature_bytes + self.structure_bytes


def simplify_policy_union(policies) -> BoolExpr:
    """Minimal-DNF union of child policies (semantically equal, small MSP)."""
    return from_dnf(to_dnf(Or.of(*policies)))


class APGTree:
    """The built AP2G-tree plus its domain and build statistics."""

    def __init__(self, root: IndexNode, domain: Domain, stats: TreeStats):
        self.root = root
        self.domain = domain
        self.stats = stats

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: Dataset,
        signer: "AppSigner",
        rng: Optional[random.Random] = None,
        binary_split: bool = False,
        simplify_policies: bool = True,
    ) -> "APGTree":
        """Bottom-up construction over the full domain (DO side).

        Cost is proportional to the domain size, not the record count —
        by design (see Table 1's saturation with database scale).

        ``binary_split`` halves only the widest dimension per level (2
        children) instead of every splittable dimension (up to 2^d
        children); the deeper tree offers finer-grained aggregation at
        the cost of more internal signatures (ablation benchmark).

        ``simplify_policies=False`` disables the minimal-DNF reduction of
        node policies (ablation: span programs then grow with subtree
        size instead of with the number of distinct policies).
        """
        stats = TreeStats(num_real_records=len(dataset))

        def children_of(box: Box) -> list[Box]:
            if not binary_split:
                return box.grid_children()
            widest = max(
                range(box.dims), key=lambda d: box.hi[d] - box.lo[d]
            )
            return list(box.split_halves(widest))

        def build_box(box: Box) -> IndexNode:
            if box.is_point:
                key: Point = box.lo
                record = dataset.get(key)
                if record is None:
                    seed_bytes = (
                        rng.getrandbits(256).to_bytes(32, "big") if rng is not None else None
                    )
                    record = make_pseudo_record(key, seed_bytes)
                with Stopwatch() as sw:
                    sig = signer.sign_record(record, rng)
                stats.sign_seconds += sw.elapsed
                stats.num_nodes += 1
                stats.num_leaves += 1
                node = IndexNode(box=box, policy=record.policy, signature=sig, record=record)
                stats.signature_bytes += sig.byte_size()
                stats.structure_bytes += node.structure_bytes()
                return node
            children = tuple(build_box(child) for child in children_of(box))
            # Only this node's own work: each child timed its subtree.
            with Stopwatch() as sw:
                if simplify_policies:
                    policy = simplify_policy_union([c.policy for c in children])
                else:
                    policy = Or.of(*[c.policy for c in children])
            stats.structure_seconds += sw.elapsed
            with Stopwatch() as sw:
                sig = signer.sign_node(box, policy, rng)
            stats.sign_seconds += sw.elapsed
            stats.num_nodes += 1
            node = IndexNode(box=box, policy=policy, signature=sig, children=children)
            stats.signature_bytes += sig.byte_size()
            stats.structure_bytes += node.structure_bytes()
            return node

        with _trace.span("index.build", kind="gridtree") as build_span:
            root = build_box(dataset.domain.box)
            build_span.set_attributes(
                nodes=stats.num_nodes, leaves=stats.num_leaves,
            )
        _M_BUILDS.inc(tree="gridtree")
        _M_NODES.inc(stats.num_nodes, tree="gridtree")
        return cls(root=root, domain=dataset.domain, stats=stats)

    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[IndexNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def leaf_at(self, key: Point) -> IndexNode:
        """Descend to the unit-cell leaf for ``key``."""
        key = self.domain.validate_point(key)
        node = self.root
        while not node.is_leaf:
            for child in node.children:
                if child.box.contains_point(key):
                    node = child
                    break
            else:
                raise WorkloadError(f"tree does not cover point {key}")
        return node

    def smallest_node_covering(self, box: Box) -> IndexNode:
        """The deepest node whose grid box contains ``box`` (used by joins)."""
        node = self.root
        if not node.box.contains_box(box):
            raise WorkloadError(f"box {box} outside the indexed domain")
        descended = True
        while descended and not node.is_leaf:
            descended = False
            for child in node.children:
                if child.box.contains_box(box):
                    node = child
                    descended = True
                    break
        return node
