"""Textbook scalar multiplication: the oracle for the BN254 fast paths.

Affine double-and-add over ``_Point.__add__`` and ``_Point.double`` (one
field inversion per step, no Jacobian kernels, no GLV split, no tables),
so it shares no code with the scalar-multiplication paths it checks.
"""


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
