"""The paper's two case splits of the dimension n, each written once.

Theorem A's split: in the Hopf-invariant-one dimensions n = 1, 3, 7
(``hopf``) the automorphism group of the middle homology is all of
Sp_2g(Z), elsewhere the theta subgroup.  Theorem B's split of odd n: the
case of the boundary sphere (``theorem_b``) by n mod 4 and n in {3, 7},
with its signature-only case 1 (``signature_only``) and the one
divisibility rule of the three divided classes (``divided``).  The
modules that branch on n read these; this module imports nothing from
the package.
"""

from __future__ import annotations


def hopf(n: int) -> bool:
    """n = 1, 3, 7: the dimensions of Hopf invariant one."""
    return n in (1, 3, 7)


def signature_only(n: int) -> bool:
    """Theorem B's case 1, n = 1 mod 4: the boundary sphere is
    sgn/8 * Sigma_P, and chi2 is not defined."""
    return n % 4 == 1


# Theorem B.  Each divided class is a numerator in (sgn, chi2), its divisor
# and the text of its failure; the divisibility is checked, never assumed.
_DIVIDED = {
    "sgn/8": (lambda sgn, chi2: sgn, 8, "signature {} not divisible by 8"),
    "chi2/2": (lambda sgn, chi2: chi2, 2, "chi2 = {} not even"),
    "(chi2-sgn)/8": (lambda sgn, chi2: chi2 - sgn, 8,
                     "chi2 - sgn = {} not divisible by 8"),
}
DIVIDED_FUNCTIONALS = tuple(_DIVIDED)


def divided(which: str, sgn: int | None, chi2: int | None) -> int:
    """The divided class ``which`` of the invariants (sgn, chi2); a
    numerator its divisor does not divide raises ValueError."""
    if which not in _DIVIDED:
        raise ValueError(f"unknown functional {which!r}; "
                         f"expected one of {DIVIDED_FUNCTIONALS}")
    numerator, divisor, failure = _DIVIDED[which]
    value = numerator(sgn, chi2)
    if value % divisor:
        raise ValueError(failure.format(value))
    return value // divisor


def theorem_b(n: int) -> tuple[str, str, tuple[tuple[str, str], ...]]:
    """Theorem B's case for odd n: the case id, the regime its errors name,
    and the rows (divided class, generator).  The boundary sphere is the sum
    of the rows, and their generators span bA.

        n = 1 mod 4:            sgn/8 * Sigma_P
        n = 3 mod 4, not 3, 7:  sgn/8 * Sigma_P + chi2/2 * Sigma_Q
        n = 3, 7:               (chi2 - sgn)/8 * Sigma_Q

    n is taken as given, since this module cannot import the integer rule;
    its callers in ``spheres`` and ``mcg`` check n first.
    """
    if signature_only(n):
        return "ThmB-case1", "n = 1 mod 4", (("sgn/8", "Sigma_P"),)
    if hopf(n):
        return "ThmB-case3", f"n = {n}", (("(chi2-sgn)/8", "Sigma_Q"),)
    return "ThmB-case2", "n = 3 mod 4", (("sgn/8", "Sigma_P"),
                                         ("chi2/2", "Sigma_Q"))
