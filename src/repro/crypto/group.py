"""Abstract bilinear-group interface and the real BN254 backend.

Every protocol in this library (ABS, CP-ABE, APP/APS signatures, the
authenticated indexes) is written against :class:`BilinearGroup`, so it can
run on either backend:

* :class:`BN254Group` — the real optimal-ate pairing over BN254
  (:mod:`repro.crypto.pairing`); cryptographically meaningful, slow in
  pure Python.
* :class:`repro.crypto.fastgroup.SimulatedGroup` — an exponent-tracking
  simulation used for large benchmarks (see DESIGN.md, Substitution 2).

Group elements are immutable value objects.  ``*`` is the group operation,
``**`` is scalar exponentiation (mod the group order), ``~`` is inversion.
Multiplicative notation matches the paper.
"""

from __future__ import annotations

import random
import threading
from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.crypto import pairing as _pairing
from repro.crypto import tower
from repro.crypto.curve import (
    _FP2_OPS,
    _FP_OPS,
    FixedBaseComb,
    G1_GENERATOR,
    G2_GENERATOR,
    PointG1,
    PointG2,
    comb_mul,
    multi_scalar_mul,
)
from repro.crypto.field import CURVE_ORDER, FIELD_MODULUS
from repro.crypto.hashing import hash_bytes, hash_to_int
from repro.errors import CryptoError, DeserializationError, GroupMismatchError
from repro.memo import BoundedMemo

G1, G2, GT = "G1", "G2", "GT"

#: Serialized element widths in bytes (compressed G1/G2, full GT).
ELEMENT_BYTES = {G1: 32, G2: 64, GT: 384}

class GroupOpStats:
    """Logical operation counters for one backend instance.

    Counts API-level group operations (not field multiplications):
    ``ops`` covers ``*``/``/``, ``pows`` the generic ``**`` path,
    ``pows_fixed``/``multi_pows`` the precomputed paths, and
    ``pairings`` every pairing evaluated, ``points_decoded`` every G1 or
    G2 element read from its encoding.  No backend caches pairings,
    so ``pair_cache_hits`` stays 0; it is kept for report readers that
    look it up.  :mod:`repro.bench.harness` snapshots these around each
    measured phase.
    """

    __slots__ = (
        "ops",
        "pows",
        "pows_fixed",
        "multi_pows",
        "pairings",
        "pair_cache_hits",
        "h2g1_hits",
        "h2g1_misses",
        "combs_built",
        "points_decoded",
    )

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        return {name: getattr(self, name) - before.get(name, 0) for name in self.__slots__}

    def merge(self, other) -> None:
        """Add another instance's (or snapshot dict's) counts into this one.

        The merge partner for per-thread deltas: workers accumulate into
        private instances and the dispatcher folds them back in, so the
        totals match a serial run of the same workload exactly.
        """
        if isinstance(other, GroupOpStats):
            other = other.snapshot()
        for name in self.__slots__:
            value = other.get(name, 0)
            if value < 0:
                raise CryptoError(f"negative stat {name!r} in merge: {value}")
            setattr(self, name, getattr(self, name) + value)


class GroupElement:
    """Immutable element of G1, G2, or GT of some backend."""

    __slots__ = ("group", "kind", "value")

    def __init__(self, group: "BilinearGroup", kind: str, value):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("GroupElement is immutable")

    def _check(self, other: "GroupElement") -> None:
        if not isinstance(other, GroupElement):
            raise GroupMismatchError(f"cannot combine GroupElement with {type(other).__name__}")
        if other.group is not self.group or other.kind != self.kind:
            raise GroupMismatchError(
                f"cannot combine {self.kind}@{self.group.name} with {other.kind}@{other.group.name}"
            )

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        self.group.stats.ops += 1
        return self.group._op(self, other)

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        self.group.stats.ops += 1
        return self.group._op(self, self.group._inv(other))

    def __pow__(self, exponent: int) -> "GroupElement":
        self.group.stats.pows += 1
        return self.group._pow(self, exponent % self.group.order)

    def __invert__(self) -> "GroupElement":
        return self.group._inv(self)

    @property
    def is_identity(self) -> bool:
        return self.group._is_identity(self)

    def to_bytes(self) -> bytes:
        return self.group._serialize(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and other.group is self.group
            and other.kind == self.kind
            and other.value == self.value
        )

    def __hash__(self):
        return hash((id(self.group), self.kind, self._hashable_value()))

    def _hashable_value(self):
        return self.value

    def __reduce__(self):
        """Pickle as ``(backend name, kind, canonical bytes)``.

        Backends themselves are process-local (their comb tables hold
        closures and their caches are not meant to travel), so elements
        are the unit of transport: the receiving process reconstructs on
        *its own* singleton via the registered factory — exactly what the
        process-pool relax workers need.
        """
        return (_unpickle_element, (self.group.name, self.kind, self.to_bytes()))

    def __repr__(self):
        return f"<{self.kind}@{self.group.name} {self.to_bytes()[:8].hex()}...>"


# -- pickle transport ---------------------------------------------------------
# name -> zero-arg factory returning the process-local singleton for that
# backend.  Registered by the modules that own the singletons (this one for
# "bn254", fastgroup for "simulated") so unpickling in a spawn-started
# worker lands every element on the worker's own shared instance.
_PICKLE_BACKENDS: dict[str, Callable[[], "BilinearGroup"]] = {}


def register_pickle_backend(name: str, factory: Callable[[], "BilinearGroup"]) -> None:
    """Register the singleton factory used to unpickle elements of ``name``."""
    _PICKLE_BACKENDS[name] = factory


def resolve_pickle_backend(name: str) -> "BilinearGroup":
    factory = _PICKLE_BACKENDS.get(name)
    if factory is None:
        raise CryptoError(
            f"no pickle backend registered for group {name!r}; "
            f"known: {sorted(_PICKLE_BACKENDS)}"
        )
    return factory()


def _unpickle_element(name: str, kind: str, data: bytes) -> "GroupElement":
    return resolve_pickle_backend(name).deserialize(kind, data)


class BilinearGroup(ABC):
    """Asymmetric (Type-3) bilinear group ``e: G1 x G2 -> GT``.

    Besides the naive per-element operators, the interface exposes two
    precomputation-aware paths:

    * :meth:`pow_fixed` — exponentiation backed by a lazily built,
      per-base fixed-base comb table, for the protocol's *fixed* bases
      (generators, signing-key components, attribute bases);
    * :meth:`multi_pow` — one multi-exponentiation for products
      ``prod_i base_i^{e_i}`` (Straus/Pippenger on point backends).

    Both agree exactly with the naive ``**`` path.  Every pairing goes
    through :meth:`multi_pair`; :meth:`pair` is its one-pair case.  The
    comb tables and the ``hash_to_g1`` memo are per-instance bounded
    LRUs — elements never cross backends.
    """

    name: str = "abstract"

    #: Max number of per-base comb tables kept (LRU).  On BN254 the larger
    #: table, G2's (2 x 127 affine Fp2 points), holds about 83.5 KB of
    #: CPython objects, so the tables stay below 64 x 84 KB = 5.4 MB.  A
    #: world needs one table per fixed base: the ``bn254_hot`` benchmark
    #: builds 22 (docs/PERFORMANCE.md, "Set-up breakdown").
    COMB_CACHE_MAX = 64

    #: Max memoized ``hash_to_g1`` results (LRU).
    H2G1_CACHE_MAX = 4096

    def __init__(self):
        self._g1 = None
        self._g2 = None
        self._gt = None
        self.stats = GroupOpStats()
        self._combs = BoundedMemo(self.COMB_CACHE_MAX)
        self._h2g1_cache = BoundedMemo(self.H2G1_CACHE_MAX, observe=self._observe_h2g1)

    # -- public API ----------------------------------------------------------
    @property
    @abstractmethod
    def order(self) -> int:
        """Prime order of all three groups."""

    @property
    def g1(self) -> GroupElement:
        if self._g1 is None:
            self._g1 = self._generator(G1)
        return self._g1

    @property
    def g2(self) -> GroupElement:
        if self._g2 is None:
            self._g2 = self._generator(G2)
        return self._g2

    @property
    def gt(self) -> GroupElement:
        """e(g1, g2), the canonical GT generator."""
        if self._gt is None:
            self._gt = self.pair(self.g1, self.g2)
        return self._gt

    def identity(self, kind: str) -> GroupElement:
        return self._identity(kind)

    def __reduce__(self):
        raise CryptoError(
            f"{type(self).__name__} is process-local and cannot be pickled; "
            "ship GroupElements (they reconstruct on the receiving "
            "process's own singleton) instead of the group"
        )

    def warm_worker(self) -> None:
        """One-time warm-up for a freshly spawned worker process.

        Builds the generator comb tables and evaluates the canonical GT
        generator, so the first real relax job does not pay
        lazy-initialization cost.  Callers with protocol context (a
        verification key, an attribute universe) should follow with the
        richer ``AppAuthenticator.warm_caches()``.
        """
        self.pow_fixed(self.g1, 1)
        self.pow_fixed(self.g2, 1)
        self.gt  # noqa: B018 — property evaluation caches e(g1, g2)

    def random_scalar(self, rng: random.Random | None = None) -> int:
        """Uniform nonzero scalar in [1, order)."""
        rng = rng or random
        return rng.randrange(1, self.order)

    def hash_to_scalar(self, *parts) -> int:
        """Deterministically hash values into [1, order)."""
        return hash_to_int(*parts, modulus=self.order, domain=b"repro-scalar")

    def hash_to_g1(self, *parts) -> GroupElement:
        """Random-oracle style hash into G1 (used by CP-ABE).

        Memoized per input in a bounded LRU (:attr:`H2G1_CACHE_MAX`): the
        attribute universe CP-ABE hashes is small and static.
        """
        return self._h2g1_cache.get_or_make(parts, lambda: self._hash_to_g1(*parts))

    def _observe_h2g1(self, outcome: str) -> None:
        if outcome == "hit":
            self.stats.h2g1_hits += 1
        elif outcome == "miss":
            self.stats.h2g1_misses += 1

    def pair(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """Bilinear pairing e(a in G1, b in G2) -> GT: the one-pair :meth:`multi_pair`."""
        return self.multi_pair([(a, b)])

    def multi_pair(self, pairs: Sequence[tuple[GroupElement, GroupElement]]) -> GroupElement:
        """prod_i e(a_i, b_i) over (G1, G2) pairs; counts ``len(pairs)`` pairings."""
        pairs = list(pairs)
        for a, b in pairs:
            if a.kind != G1 or b.kind != G2:
                raise GroupMismatchError("a pairing expects (G1, G2) arguments")
        self.stats.pairings += len(pairs)
        return GroupElement(self, GT, self._multi_pair(pairs))

    # -- precomputation paths --------------------------------------------------
    def pow_fixed(self, base: GroupElement, exponent: int) -> GroupElement:
        """``base ** exponent`` through a per-base fixed-base comb table.

        The table is built lazily on the first call for a given base and
        kept in a per-instance LRU (:attr:`COMB_CACHE_MAX` bases); it
        amortizes after ~2 exponentiations.  Agrees exactly with ``**``.
        """
        self.stats.pows_fixed += 1
        comb = self._combs.get_or_make(
            (base.kind, self._serialize(base)), lambda: self._build_comb(base)
        )
        return comb(exponent % self.order)

    def _build_comb(self, base: GroupElement) -> Callable[[int], GroupElement]:
        self.stats.combs_built += 1
        return self._make_comb(base)

    def multi_pow(
        self, bases: Sequence[GroupElement], exponents: Sequence[int]
    ) -> GroupElement:
        """``prod_i bases[i] ** exponents[i]`` as one multi-exponentiation.

        All bases must share one kind.  Point backends dispatch to
        Straus interleaving or Pippenger bucketing by estimated cost;
        the generic fallback is the naive product.
        """
        if len(bases) != len(exponents):
            raise CryptoError("multi_pow bases and exponents must align")
        if not bases:
            raise CryptoError("multi_pow requires at least one base")
        kind = bases[0].kind
        for b in bases:
            if b.group is not self or b.kind != kind:
                raise GroupMismatchError("multi_pow bases must share one group and kind")
        self.stats.multi_pows += 1
        return self._multi_pow(kind, bases, exponents)

    def _multi_pow(
        self, kind: str, bases: Sequence[GroupElement], exponents: Sequence[int]
    ) -> GroupElement:
        acc = self.identity(kind)
        for base, e in zip(bases, exponents):
            acc = self._op(acc, self._pow(base, e % self.order))
        return acc

    def _make_comb(self, base: GroupElement) -> Callable[[int], GroupElement]:
        """Generic comb over the group operation (backends may override).

        Works for any backend/kind; point backends replace it with
        Jacobian-coordinate tables, which are much faster.
        """
        kind = base.kind
        if self._is_identity(base):
            identity = self.identity(kind)
            return lambda e: identity
        width = 4
        bits = self.order.bit_length()
        cols = -(-bits // width)
        spine = [base]
        for _ in range(1, width):
            spine.append(self._pow(spine[-1], 1 << cols))
        table: list = [None] * (1 << width)
        for i in range(width):
            table[1 << i] = spine[i]
        for j in range(3, 1 << width):
            low = j & -j
            if table[j] is None:
                table[j] = self._op(table[j ^ low], table[low])
        identity = self.identity(kind)

        def _eval(e: int) -> GroupElement:
            acc = None
            for col in range(cols - 1, -1, -1):
                if acc is not None:
                    acc = self._op(acc, acc)
                digit = 0
                for tooth in range(width):
                    digit |= ((e >> (tooth * cols + col)) & 1) << tooth
                if digit:
                    entry = table[digit]
                    acc = entry if acc is None else self._op(acc, entry)
            return acc if acc is not None else identity

        return _eval

    def element_bytes(self, kind: str) -> int:
        return ELEMENT_BYTES[kind]

    def in_subgroup(self, element: GroupElement) -> bool:
        """Whether ``element`` lies in the order-r subgroup of its kind.

        Every element of a backend that represents elements by their
        exponents does; point backends override this.
        """
        return True

    @abstractmethod
    def deserialize(self, kind: str, data: bytes, check_subgroup: bool = False) -> GroupElement:
        """Inverse of :meth:`GroupElement.to_bytes`.

        With ``check_subgroup=True``, backends additionally verify that
        the decoded element lies in the order-r subgroup (an order check
        ``v ** order == 1``); this matters for GT, whose coefficient
        range check alone admits arbitrary Fp12 encodings.
        """

    # -- backend hooks ---------------------------------------------------------
    @abstractmethod
    def _hash_to_g1(self, *parts) -> GroupElement: ...

    @abstractmethod
    def _multi_pair(self, pairs: list[tuple[GroupElement, GroupElement]]): ...

    @abstractmethod
    def _generator(self, kind: str) -> GroupElement: ...

    @abstractmethod
    def _identity(self, kind: str) -> GroupElement: ...

    @abstractmethod
    def _op(self, a: GroupElement, b: GroupElement) -> GroupElement: ...

    @abstractmethod
    def _pow(self, a: GroupElement, e: int) -> GroupElement: ...

    @abstractmethod
    def _inv(self, a: GroupElement) -> GroupElement: ...

    @abstractmethod
    def _is_identity(self, a: GroupElement) -> bool: ...

    @abstractmethod
    def _serialize(self, a: GroupElement) -> bytes: ...


class BN254Group(BilinearGroup):
    """The real pairing backend over BN254."""

    name = "bn254"

    @property
    def order(self) -> int:
        return CURVE_ORDER

    def _make_comb(self, base: GroupElement) -> Callable[[int], GroupElement]:
        if base.kind == GT or base.value.is_identity:
            return super()._make_comb(base)
        return _PointComb(self, base.kind, FixedBaseComb(base.value.xy, _POINT_KINDS[base.kind][0]))

    def _multi_pow(
        self, kind: str, bases: Sequence[GroupElement], exponents: Sequence[int]
    ) -> GroupElement:
        if kind == GT:
            return super()._multi_pow(kind, bases, exponents)
        ops, cls = _POINT_KINDS[kind]
        kept = [
            (base, e)
            for base, e in ((b, e % CURVE_ORDER) for b, e in zip(bases, exponents))
            if e and not base.value.is_identity
        ]
        if not kept:
            return self.identity(kind)
        scalars = [e for _, e in kept]
        # Products over protocol-fixed bases (the message base's C and g,
        # the attribute bases of a span-program column): when every base
        # already has a comb table, one shared comb scan (18 doublings, up
        # to 36 mixed additions a base) undercuts a fresh GLV-split Straus
        # (127 doublings, ~57 a base).  Combs are never *built* here — a
        # cold base means the MSM below is the right tool.
        combs = []
        for base, _ in kept:
            comb = self._combs.get((kind, self._serialize(base)))
            if comb is None:
                break
            combs.append(comb.comb)
        else:
            return GroupElement(self, kind, cls(comb_mul(combs, scalars)))
        points = [b.value.xy for b, _ in kept]
        return GroupElement(self, kind, cls(multi_scalar_mul(points, scalars, ops)))

    def _generator(self, kind: str) -> GroupElement:
        if kind == G1:
            return GroupElement(self, G1, G1_GENERATOR)
        if kind == G2:
            return GroupElement(self, G2, G2_GENERATOR)
        if kind == GT:
            return self.gt
        raise CryptoError(f"unknown group kind {kind!r}")

    def _identity(self, kind: str) -> GroupElement:
        if kind == G1:
            return GroupElement(self, G1, PointG1.identity())
        if kind == G2:
            return GroupElement(self, G2, PointG2.identity())
        if kind == GT:
            return GroupElement(self, GT, tower.FP12_ONE)
        raise CryptoError(f"unknown group kind {kind!r}")

    def _op(self, a: GroupElement, b: GroupElement) -> GroupElement:
        if a.kind == GT:
            return GroupElement(self, GT, tower.fp12_mul(a.value, b.value))
        return GroupElement(self, a.kind, a.value + b.value)

    def _pow(self, a: GroupElement, e: int) -> GroupElement:
        if a.kind == GT:
            return GroupElement(self, GT, tower.fp12_pow(a.value, e))
        return GroupElement(self, a.kind, a.value * e)

    def _inv(self, a: GroupElement) -> GroupElement:
        if a.kind == GT:
            return GroupElement(self, GT, tower.fp12_inv(a.value))
        return GroupElement(self, a.kind, -a.value)

    def _is_identity(self, a: GroupElement) -> bool:
        if a.kind == GT:
            return a.value == tower.FP12_ONE
        return a.value.is_identity

    def _serialize(self, a: GroupElement) -> bytes:
        if a.kind == GT:
            out = bytearray()
            for c6 in a.value:
                for c2 in c6:
                    for c in c2:
                        out += c.to_bytes(32, "big")
            return bytes(out)
        return a.value.to_bytes()

    def in_subgroup(self, element: GroupElement) -> bool:
        # E(Fp) has prime order r, so every decoded G1 point is in G1; the
        # twist has a cofactor, and Fp12 is far larger than GT.
        if element.kind == G2:
            return element.value.in_subgroup()
        if element.kind == GT:
            return tower.fp12_pow(element.value, CURVE_ORDER) == tower.FP12_ONE
        return True

    def deserialize(self, kind: str, data: bytes, check_subgroup: bool = False) -> GroupElement:
        if kind not in (G1, G2, GT):
            raise CryptoError(f"unknown group kind {kind!r}")
        if kind != GT:
            self.stats.points_decoded += 1
        try:
            if kind == G1:
                element = GroupElement(self, G1, PointG1.from_bytes(data))
            elif kind == G2:
                element = GroupElement(self, G2, PointG2.from_bytes(data))
            else:
                if len(data) != 384:
                    raise CryptoError("GT encoding must be 384 bytes")
                ints = [int.from_bytes(data[i : i + 32], "big") for i in range(0, 384, 32)]
                if any(v >= FIELD_MODULUS for v in ints):
                    raise CryptoError("GT coefficient out of range")
                value = (
                    ((ints[0], ints[1]), (ints[2], ints[3]), (ints[4], ints[5])),
                    ((ints[6], ints[7]), (ints[8], ints[9]), (ints[10], ints[11])),
                )
                element = GroupElement(self, GT, value)
            if check_subgroup and not self.in_subgroup(element):
                raise CryptoError(f"{kind} encoding is outside the order-r subgroup")
            return element
        except CryptoError as exc:
            raise DeserializationError(str(exc)) from exc

    def _hash_to_g1(self, *parts) -> GroupElement:
        """Try-and-increment hash to the curve (G1 cofactor is 1)."""
        from repro.crypto.field import fp_sqrt

        seed = hash_bytes(b"repro-h2c", *parts)
        counter = 0
        while True:
            x = hash_to_int(seed, counter, modulus=FIELD_MODULUS, domain=b"repro-h2c-x")
            y = fp_sqrt((x * x % FIELD_MODULUS * x + 3) % FIELD_MODULUS)
            if y is not None:
                # Normalize sign deterministically.
                if y > FIELD_MODULUS - y:
                    y = FIELD_MODULUS - y
                return GroupElement(self, G1, PointG1((x, y)))
            counter += 1

    def _multi_pair(self, pairs):
        return _pairing.multi_pairing((a.value, b.value) for a, b in pairs)


class _PointComb:
    """``pow_fixed``'s table for a G1/G2 base: ``e -> base ** e`` on a comb."""

    __slots__ = ("group", "kind", "comb")

    def __init__(self, group: BN254Group, kind: str, comb: FixedBaseComb):
        self.group = group
        self.kind = kind
        self.comb = comb

    def __call__(self, e: int) -> GroupElement:
        return GroupElement(self.group, self.kind, _POINT_KINDS[self.kind][1](self.comb.mul(e)))


#: Point kinds -> (field-operation table, point class).
_POINT_KINDS = {G1: (_FP_OPS, PointG1), G2: (_FP2_OPS, PointG2)}

_DEFAULT_BN254: BN254Group | None = None
_BN254_LOCK = threading.Lock()


def bn254() -> BN254Group:
    """Shared BN254 backend instance (thread-safe initialization).

    Without the lock, racing ``parallel_map`` workers could each build
    their own instance — and elements from distinct instances refuse to
    combine (:class:`GroupMismatchError`), so the race is not benign.
    """
    global _DEFAULT_BN254
    if _DEFAULT_BN254 is None:
        with _BN254_LOCK:
            if _DEFAULT_BN254 is None:
                _DEFAULT_BN254 = BN254Group()
    return _DEFAULT_BN254


register_pickle_backend(BN254Group.name, bn254)
