"""Closed-form f-vector bounds, all in exact integer arithmetic.

Vertex-count bound from the first Betti number, the binomial form of the
same inequality, the Euler-characteristic surface bound, the generalized
lower bound for sphere face numbers, and the 6-manifold triangle bounds
with the Dehn-Sommerville residual they rest on.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

__all__ = [
    "BoundsReport",
    "BinomialCheck",
    "tight_neighborly_bound",
    "binomial_form_check",
    "heawood_bound",
    "glbc_bound",
    "six_manifold_bound",
    "dehn_sommerville6_residual",
]


@dataclass(frozen=True)
class BoundsReport:
    """One named bound with its inputs and optional attained value."""

    name: str
    inputs: dict
    bound: int
    actual: int | None = None
    note: str = ""

    @property
    def slack(self) -> int | None:
        return None if self.actual is None else self.actual - self.bound

    @property
    def equality(self) -> bool:
        return self.slack == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "bound": self.bound,
            "actual": self.actual,
            "slack": self.slack,
            "equality": self.equality,
            "note": self.note,
        }


def _ceil_half_root(a: int, disc: int) -> int:
    # ceil((a + sqrt(disc)) / 2) without floats; exact when disc is square
    s = isqrt(disc)
    if s * s == disc:
        return (a + s + 1) // 2
    return (a + s) // 2 + 1


def tight_neighborly_bound(d: int, beta1: int) -> int:
    """Least admissible vertex count for a d-manifold with first Betti
    number beta1: ceil((2d+3 + sqrt(1 + 4(d+1)(d+2) beta1)) / 2).

    Integer square root throughout; perfect-square discriminants are the
    regular cases where the bound is attained exactly.
    """
    if d < 3:
        raise ValueError("bound applies to dimension at least 3")
    if beta1 < 0:
        raise ValueError("beta1 must be nonnegative")
    return _ceil_half_root(2 * d + 3, 1 + 4 * (d + 1) * (d + 2) * beta1)


@dataclass(frozen=True)
class BinomialCheck:
    """Outcome of the binomial form C(f0-d-1, 2) >= C(d+2, 2) * beta1."""

    satisfied: bool
    equality: bool
    lhs: int
    rhs: int

    def __bool__(self) -> bool:
        return self.satisfied


def binomial_form_check(f0: int, d: int, beta1: int) -> BinomialCheck:
    """Evaluate the binomial form of the vertex bound exactly."""
    if f0 < d + 1:
        raise ValueError("f0 must be at least d+1")
    lhs = comb(f0 - d - 1, 2)
    rhs = comb(d + 2, 2) * beta1
    return BinomialCheck(lhs >= rhs, lhs == rhs, lhs, rhs)


def heawood_bound(chi: int) -> int:
    """Surface vertex bound ceil((7 + sqrt(49 - 24 chi)) / 2)."""
    disc = 49 - 24 * chi
    if disc < 0:
        raise ValueError("Euler characteristic must be at most 2")
    return _ceil_half_root(7, disc)


def glbc_bound(d: int, k: int, j: int, partial_f) -> int:
    """Lower bound for f_j of a triangulated d-sphere given f_{-1}..f_{k-1}.

    ``partial_f`` starts at f_{-1} = 1.  Two branches: for k <= j <= d-k a
    single signed-binomial sum; for d-k+1 <= j <= d a bracketed form with
    an inner alternating sum over l = d-j .. k-1.  The inner sum's upper
    limit is k-1: with it every k-stacked sphere attains equality in both
    branches (checked on boundary simplices and stacked spheres), which is
    the equality case the bound is defined by.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if d < 2 * k + 1:
        raise ValueError("need d >= 2k+1")
    if j < k:
        raise ValueError("j must be at least k")
    if j > d:
        raise ValueError("j must be at most d")
    fv = list(partial_f)
    if len(fv) != k + 1:
        raise ValueError(f"partial_f needs the {k + 1} entries f_-1..f_{k - 1}")
    if fv[0] != 1:
        raise ValueError("partial_f must start with f_-1 = 1")
    total = 0
    for i in range(-1, k):
        fi = fv[i + 1]
        sign = (-1) ** (k - i + 1)
        bracket = comb(j - i - 1, j - k) * comb(d - i + 1, j - i)
        if j > d - k:
            bracket -= comb(k, d - j + 1) * comb(d - i, d - k + 1)
            for L in range(d - j, k):
                bracket += (-1) ** (k - L) * comb(L, d - j) * comb(d - i, d - L + 1)
        total += sign * bracket * fi
    return total


def six_manifold_bound(chi: int, f0: int, f1: int | None = None, two_neighborly: bool = False) -> int:
    """Triangle lower bound for 6-manifolds.

    Default form: 28 chi - 21 f0 + 6 f1.  With ``two_neighborly`` the
    substitution f1 = C(f0, 2) collapses it to 28 chi + 3 f0 (f0 - 8).
    """
    if two_neighborly:
        return 28 * chi + 3 * f0 * (f0 - 8)
    if f1 is None:
        raise ValueError("f1 is required unless two_neighborly is set")
    return 28 * chi - 21 * f0 + 6 * f1


def dehn_sommerville6_residual(f, chi: int) -> int:
    """35 f0 - 15 f1 + 5 f2 - f3 - 35 chi; zero for closed 6-manifolds."""
    fv = tuple(f)
    if len(fv) < 4:
        raise ValueError("f-vector must reach f_3")
    return 35 * fv[0] - 15 * fv[1] + 5 * fv[2] - fv[3] - 35 * chi
