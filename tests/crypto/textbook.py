"""Textbook scalar multiplication: the oracle for the BN254 fast paths.

Affine double-and-add over ``_Point.__add__`` and ``_Point.double`` (one
field inversion per step, no Jacobian kernels, no GLV split, no tables),
so it shares no code with the scalar-multiplication paths it checks.
``TextbookGroup`` is a BN254 backend whose ``pow_fixed`` and
``multi_pow`` run on it, the golden tests' oracle arm.
"""

from repro.crypto.group import GT, BN254Group, GroupElement


def textbook_mul(point, k: int):
    """``k * point`` for any integer ``k`` (negative means ``-|k| * point``)."""
    if k < 0:
        return -textbook_mul(point, -k)
    acc = type(point).identity()
    base = point
    while k:
        if k & 1:
            acc = acc + base
        base = base.double()
        k >>= 1
    return acc


class TextbookGroup(BN254Group):
    """BN254 with ``textbook_mul`` behind ``pow_fixed`` and ``multi_pow`` on G1/G2."""

    def _make_comb(self, base: GroupElement):
        if base.kind == GT:
            return lambda e: self._pow(base, e)
        return lambda e: GroupElement(self, base.kind, textbook_mul(base.value, e))

    def _multi_pow(self, kind, bases, exponents):
        if kind == GT:
            return super()._multi_pow(kind, bases, exponents)
        acc = self.identity(kind).value
        for base, e in zip(bases, exponents):
            acc = acc + textbook_mul(base.value, e % self.order)
        return GroupElement(self, kind, acc)
