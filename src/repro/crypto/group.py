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
from collections import OrderedDict
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
    multi_scalar_mul,
)
from repro.crypto.field import CURVE_ORDER, FIELD_MODULUS
from repro.crypto.hashing import hash_bytes, hash_to_int
from repro.errors import CryptoError, DeserializationError, GroupMismatchError
from repro.memo import BoundedMemo
from repro.obs import ledger as _ledger
from repro.obs import metrics as _metrics

G1, G2, GT = "G1", "G2", "GT"

#: Serialized element widths in bytes (compressed G1/G2, full GT).
ELEMENT_BYTES = {G1: 32, G2: 64, GT: 384}

#: Decoded points a BN254 backend keeps per group (G1 and G2 each).  A
#: warm client re-reads the same signatures and CP-ABE headers; the
#: ``bn254_hot`` benchmark's three users see 164 distinct points.
DECODE_MEMO_SIZE = 1024

_M_DECODE_MEMO = _metrics.registry().counter(
    "repro_decode_memo_total",
    "BN254 point-decode memo lookups by outcome (hit / miss / evicted).",
    labelnames=("outcome",),
)
_DECODE_COUNTERS = {"hit": "decode_memo_hits", "miss": "decode_memo_misses"}


def _observe_decode(outcome: str) -> None:
    """Point-decode memo outcome: a metric, plus a tally for the exchange's ledger record."""
    _M_DECODE_MEMO.inc(outcome=outcome)
    if outcome != "evicted":
        _ledger.tally(_DECODE_COUNTERS[outcome])


class GroupOpStats:
    """Logical operation counters for one backend instance.

    Counts API-level group operations (not field multiplications):
    ``ops`` covers ``*``/``/``, ``pows`` the generic ``**`` path,
    ``pows_fixed``/``multi_pows`` the precomputed fast paths, and
    ``pairings`` every pairing evaluated (cache hits excluded — those
    are the pairings *not* computed).  :mod:`repro.bench.harness`
    snapshots these around each measured phase.
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
    precomputation-aware fast paths:

    * :meth:`pow_fixed` — exponentiation backed by a lazily built,
      per-base fixed-base comb table, for the protocol's *fixed* bases
      (generators, signing-key components, attribute bases);
    * :meth:`multi_pow` — one multi-exponentiation for products
      ``prod_i base_i^{e_i}`` (Straus/Pippenger on point backends).

    Both agree exactly with the naive ``**`` path; setting
    :attr:`fast_paths` to ``False`` routes them (and the backend caches)
    through the naive implementations for A/B measurement.  All caches
    and comb tables are per-instance — elements never cross backends.
    """

    name: str = "abstract"

    #: Max number of per-base comb tables kept (LRU).
    COMB_CACHE_MAX = 256

    def __init__(self):
        self._g1 = None
        self._g2 = None
        self._gt = None
        self.stats = GroupOpStats()
        self.fast_paths = True
        self._combs: "OrderedDict[tuple, Callable[[int], GroupElement]]" = OrderedDict()

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
        generator (seeding the pairing cache on backends that have one),
        so the first real relax job does not pay lazy-initialization
        cost.  Callers with protocol context (a verification key, an
        attribute universe) should follow with the richer
        ``AppAuthenticator.warm_caches()``.
        """
        self.pow_fixed(self.g1, 1)
        self.pow_fixed(self.g2, 1)
        self.gt  # noqa: B018 — property evaluation seeds the pairing cache

    def random_scalar(self, rng: random.Random | None = None) -> int:
        """Uniform nonzero scalar in [1, order)."""
        rng = rng or random
        return rng.randrange(1, self.order)

    def hash_to_scalar(self, *parts) -> int:
        """Deterministically hash values into [1, order)."""
        return hash_to_int(*parts, modulus=self.order, domain=b"repro-scalar")

    @abstractmethod
    def hash_to_g1(self, *parts) -> GroupElement:
        """Random-oracle style hash into G1 (used by CP-ABE)."""

    @abstractmethod
    def pair(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """Bilinear pairing e(a in G1, b in G2) -> GT."""

    def multi_pair(self, pairs: Sequence[tuple[GroupElement, GroupElement]]) -> GroupElement:
        """prod_i e(a_i, b_i); backends may share the final exponentiation."""
        acc = self.identity(GT)
        for a, b in pairs:
            acc = acc * self.pair(a, b)
        return acc

    # -- precomputation fast paths -------------------------------------------
    def pow_fixed(self, base: GroupElement, exponent: int) -> GroupElement:
        """``base ** exponent`` through a per-base fixed-base comb table.

        The table is built lazily on the first call for a given base and
        kept in a per-instance LRU (:attr:`COMB_CACHE_MAX` bases); it
        amortizes after ~2 exponentiations.  Agrees exactly with ``**``.
        """
        exponent %= self.order
        if not self.fast_paths:
            self.stats.pows += 1
            return self._pow(base, exponent)
        self.stats.pows_fixed += 1
        key = (base.kind, self._serialize(base))
        comb = self._combs.get(key)
        if comb is None:
            comb = self._make_comb(base)
            self.stats.combs_built += 1
            self._combs[key] = comb
            if len(self._combs) > self.COMB_CACHE_MAX:
                self._combs.popitem(last=False)
        else:
            self._combs.move_to_end(key)
        return comb(exponent)

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
    """The real pairing backend over BN254.

    On top of the generic interface this backend keeps three per-instance
    caches for the protocol's static work:

    * a bounded LRU pairing cache keyed on the (G1, G2) serializations —
      the ``e(g, pk)``-style pairs a verifier recomputes per VO entry
      hit it, and a hit returns the previously computed (bit-identical)
      GT element without running a Miller loop;
    * a ``hash_to_g1`` memo — try-and-increment is re-run constantly for
      the small, bounded attribute universe;
    * a point-decode memo per group (G1, G2) keyed on the exact encoding —
      decompression costs a field square root, and a warm client decodes
      the same signatures and CP-ABE headers on every read.  It stores
      only successful decodes, so malformed bytes raise on every call.

    All three honour :attr:`fast_paths` and never leak across instances.
    """

    name = "bn254"

    #: Max cached pairings / hash-to-curve results (LRU).
    PAIR_CACHE_MAX = 1024
    H2G1_CACHE_MAX = 4096

    def __init__(self):
        super().__init__()
        self._pair_cache: "OrderedDict[bytes, GroupElement]" = OrderedDict()
        self._h2g1_cache: "OrderedDict[bytes, GroupElement]" = OrderedDict()
        self._decode_memos = {
            kind: BoundedMemo(DECODE_MEMO_SIZE, observe=_observe_decode) for kind in (G1, G2)
        }

    @property
    def order(self) -> int:
        return CURVE_ORDER

    def _make_comb(self, base: GroupElement) -> Callable[[int], GroupElement]:
        if base.kind == GT or base.value.is_identity:
            return super()._make_comb(base)
        if base.kind == G1:
            ops, cls = _FP_OPS, PointG1
        else:
            ops, cls = _FP2_OPS, PointG2
        comb = FixedBaseComb(base.value.xy, ops)
        return lambda e: GroupElement(self, base.kind, cls(comb.mul(e)))

    def _multi_pow(
        self, kind: str, bases: Sequence[GroupElement], exponents: Sequence[int]
    ) -> GroupElement:
        if kind == GT or not self.fast_paths:
            return super()._multi_pow(kind, bases, exponents)
        ops, cls = (_FP_OPS, PointG1) if kind == G1 else (_FP2_OPS, PointG2)
        kept = [
            (base, e)
            for base, e in ((b, e % CURVE_ORDER) for b, e in zip(bases, exponents))
            if e and not base.value.is_identity
        ]
        if not kept:
            return self.identity(kind)
        if len(kept) <= 3:
            # Small products over protocol-fixed bases (e.g. attribute
            # bases in span-program columns): when every base already
            # has a comb table, n comb evaluations undercut a fresh
            # multi-exponentiation.  Combs are never *built* here — a
            # cold base means the MSM below is the right tool.
            combs = [self._combs.get((kind, self._serialize(b))) for b, _ in kept]
            if all(combs):
                acc = combs[0](kept[0][1])
                for comb, (_, e) in zip(combs[1:], kept[1:]):
                    acc = self._op(acc, comb(e))
                return acc
        points = [b.value.xy for b, _ in kept]
        scalars = [e for _, e in kept]
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

    def deserialize(self, kind: str, data: bytes, check_subgroup: bool = False) -> GroupElement:
        """Decode an element; unchecked G1/G2 decodes go through the decode memo.

        A ``check_subgroup`` decode never uses the memo, so a point cached
        by an unchecked decode can never stand in for the check.
        """
        memo = self._decode_memos.get(kind)
        if memo is None or check_subgroup or not self.fast_paths:
            return self._decode(kind, data, check_subgroup)
        data = bytes(data)
        return memo.get_or_make(data, lambda: self._decode(kind, data, check_subgroup))

    def _decode(self, kind: str, data: bytes, check_subgroup: bool) -> GroupElement:
        try:
            if kind == G1:
                return GroupElement(self, G1, PointG1.from_bytes(data))
            if kind == G2:
                return GroupElement(self, G2, PointG2.from_bytes(data))
            if kind == GT:
                if len(data) != 384:
                    raise CryptoError("GT encoding must be 384 bytes")
                ints = [int.from_bytes(data[i : i + 32], "big") for i in range(0, 384, 32)]
                if any(v >= FIELD_MODULUS for v in ints):
                    raise CryptoError("GT coefficient out of range")
                value = (
                    ((ints[0], ints[1]), (ints[2], ints[3]), (ints[4], ints[5])),
                    ((ints[6], ints[7]), (ints[8], ints[9]), (ints[10], ints[11])),
                )
                if check_subgroup and tower.fp12_pow(value, CURVE_ORDER) != tower.FP12_ONE:
                    raise CryptoError("GT encoding is outside the order-r subgroup")
                return GroupElement(self, GT, value)
        except CryptoError as exc:
            raise DeserializationError(str(exc)) from exc
        raise CryptoError(f"unknown group kind {kind!r}")

    def hash_to_g1(self, *parts) -> GroupElement:
        """Try-and-increment hash to the curve (G1 cofactor is 1).

        Results are memoized per seed (bounded LRU): the attribute
        universe hashed by CP-ABE is small and static, while each
        try-and-increment run costs several field square roots.
        """
        seed = hash_bytes(b"repro-h2c", *parts)
        if self.fast_paths:
            cached = self._h2g1_cache.get(seed)
            if cached is not None:
                self._h2g1_cache.move_to_end(seed)
                self.stats.h2g1_hits += 1
                return cached
        element = self._hash_to_g1_uncached(seed)
        if self.fast_paths:
            self.stats.h2g1_misses += 1
            self._h2g1_cache[seed] = element
            if len(self._h2g1_cache) > self.H2G1_CACHE_MAX:
                self._h2g1_cache.popitem(last=False)
        return element

    def _hash_to_g1_uncached(self, seed: bytes) -> GroupElement:
        from repro.crypto.field import fp_sqrt

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

    def pair(self, a: GroupElement, b: GroupElement) -> GroupElement:
        if a.kind != G1 or b.kind != G2:
            raise GroupMismatchError("pair() expects (G1, G2)")
        if not self.fast_paths:
            self.stats.pairings += 1
            return GroupElement(self, GT, _pairing.pairing(a.value, b.value))
        key = a.value.to_bytes() + b.value.to_bytes()
        cached = self._pair_cache.get(key)
        if cached is not None:
            self._pair_cache.move_to_end(key)
            self.stats.pair_cache_hits += 1
            return cached
        self.stats.pairings += 1
        out = GroupElement(self, GT, _pairing.pairing(a.value, b.value))
        self._pair_cache[key] = out
        if len(self._pair_cache) > self.PAIR_CACHE_MAX:
            self._pair_cache.popitem(last=False)
        return out

    def multi_pair(self, pairs: Sequence[tuple[GroupElement, GroupElement]]) -> GroupElement:
        pairs = list(pairs)
        for a, b in pairs:
            if a.kind != G1 or b.kind != G2:
                raise GroupMismatchError("multi_pair() expects (G1, G2) pairs")
        self.stats.pairings += len(pairs)
        value = _pairing.multi_pairing((a.value, b.value) for a, b in pairs)
        return GroupElement(self, GT, value)


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
