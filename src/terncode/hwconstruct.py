"""The concrete two-function construction from Hamming-weight shells.

For m >= 9 and 2 <= k1 < k1+1 < k2 <= floor((m-1)/2), partition the
nonzero vectors of F_3^m by Hamming weight into

    A: 1 <= wt <= k1-1,   B: wt = k1,   C: k1 < wt <= k2-1,   D: wt = k2,

and define f = 1 on A u C u D (else 0), g = 1 on B u C, 2 on D (else 0).
The resulting code has parameters [3^m - 1, m + 2, sum_{j<k2} 2^j C(m,j)],
and both its weight distribution and complete weight enumerator admit
closed forms in the shell sizes

    a = |A|, b = |B|, c = |C|, d = |D|, e = 3^m - 1 - (a+b+c+d)

and in Lloyd-polynomial differences per shift weight i:

    alpha = Psi_{k1-1}(i,m) - 1          beta  = Psi_{k1}(i,m) - Psi_{k1-1}(i,m)
    gamma = Psi_{k2-1}(i,m) - Psi_{k1}(i,m)   delta = Psi_{k2}(i,m) - Psi_{k2-1}(i,m)

This module evaluates those closed forms exactly; the transform path in
:mod:`terncode.code` recomputes the same objects independently and the
two must agree bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf3
from .code import (
    CodeSpec,
    CompleteWeightEnumerator,
    WeightDistribution,
    validate,
)
from .kraw import binomial, lloyd
from .minimality import MinimalityVerdict, ashikhmin_barg, spectral_check
from .spectrum import TernaryFunction


@dataclass(frozen=True)
class HWParams:
    """Admissible (m, k1, k2) with the derived shell sizes."""

    m: int
    k1: int
    k2: int

    def __post_init__(self):
        if self.m < 9:
            raise ValueError(f"m must be >= 9, got {self.m}")
        gf3.check_dimension(self.m)
        if self.k1 < 2:
            raise ValueError(f"k1 must be >= 2, got {self.k1}")
        if self.k2 < self.k1 + 2:
            raise ValueError(f"need k1 < k1+1 < k2, got k1={self.k1}, k2={self.k2}")
        if self.k2 > (self.m - 1) // 2:
            raise ValueError(f"k2 must be <= floor((m-1)/2) = {(self.m - 1) // 2}, got {self.k2}")

    @cached_property
    def a(self) -> int:
        return sum(2**j * binomial(self.m, j) for j in range(1, self.k1))

    @cached_property
    def b(self) -> int:
        return 2**self.k1 * binomial(self.m, self.k1)

    @cached_property
    def c(self) -> int:
        return sum(2**j * binomial(self.m, j) for j in range(self.k1 + 1, self.k2))

    @cached_property
    def d(self) -> int:
        return 2**self.k2 * binomial(self.m, self.k2)

    @cached_property
    def e(self) -> int:
        return gf3.pow3(self.m) - 1 - (self.a + self.b + self.c + self.d)

    def greek(self, i: int) -> tuple[int, int, int, int]:
        """(alpha, beta, gamma, delta) at shift weight i, 1 <= i <= m."""
        if not 1 <= i <= self.m:
            raise ValueError(f"shift weight i={i} outside [1, m={self.m}]")
        p0 = lloyd(self.k1 - 1, i, self.m)
        p1 = lloyd(self.k1, i, self.m)
        p2 = lloyd(self.k2 - 1, i, self.m)
        p3 = lloyd(self.k2, i, self.m)
        return p0 - 1, p1 - p0, p2 - p1, p3 - p2


def admissible_params(m: int) -> list[HWParams]:
    """All admissible (k1, k2) windows at dimension m."""
    out = []
    for k1 in range(2, m):
        for k2 in range(k1 + 2, (m - 1) // 2 + 1):
            out.append(HWParams(m, k1, k2))
    return out


def build_fg(p: HWParams) -> tuple[TernaryFunction, TernaryFunction]:
    """Materialize the two shell characteristic functions."""
    w = gf3.weights_table(p.m).astype(np.int16)
    f_tab = (((w >= 1) & (w <= p.k2) & (w != p.k1))).astype(np.int8)
    g_tab = np.zeros_like(f_tab)
    g_tab[(w >= p.k1) & (w <= p.k2 - 1)] = 1
    g_tab[w == p.k2] = 2
    return TernaryFunction(p.m, f_tab), TernaryFunction(p.m, g_tab)


def build_spec(p: HWParams) -> CodeSpec:
    f, g = build_fg(p)
    return validate(p.m, f, g)


def closed_form_weight_distribution(p: HWParams) -> WeightDistribution:
    """The ten-row closed form, merged as a multiset (collisions summed)."""
    m = p.m
    half = 3 ** (m - 1)
    entries: dict[int, int] = {}

    def add(weight: int, count: int) -> None:
        entries[weight] = entries.get(weight, 0) + count

    add(0, 1)
    add(2 * half, gf3.pow3(m) - 1)
    add(p.a + p.c + p.d, 2)  # +/- f at v = 0
    add(p.b + p.c + p.d, 2)  # +/- g
    add(p.a + p.b + p.c, 2)  # +/- (f+g); the minimum by the dominance of shell sizes
    add(p.a + p.b + p.d, 2)  # +/- (f-g)
    for i in range(1, m + 1):
        alpha, beta, gamma, delta = p.greek(i)
        count = 2 * gf3.count_vectors_of_weight(m, i)
        add(2 * half + alpha + gamma + delta, count)  # +/- f, wt(v) = i
        add(2 * half + beta + gamma + delta, count)  # +/- g
        add(2 * half + alpha + beta + gamma, count)  # +/- (f+g)
        add(2 * half + alpha + beta + delta, count)  # +/- (f-g)
    return WeightDistribution(entries)


def closed_form_cwe(p: HWParams) -> CompleteWeightEnumerator:
    """Closed-form complete weight enumerator as a flat exponent multiset."""
    m = p.m
    total = gf3.pow3(m)
    half = 3 ** (m - 1)
    a, b, c, d, e = p.a, p.b, p.c, p.d, p.e
    terms: dict[tuple[int, int, int], int] = {}

    def add(t0: int, t1: int, t2: int, count: int) -> None:
        key = (t0, t1, t2)
        terms[key] = terms.get(key, 0) + count

    add(total - 1, 0, 0, 1)
    add(half - 1, half, half, total - 1)
    # v = 0, (u, r) nonzero: one term per (u, r), exponents in the shell sizes
    add(b + e, a + c + d, 0, 1)  # (1,0)
    add(b + e, 0, a + c + d, 1)  # (2,0)
    add(a + e, b + c, d, 1)  # (0,1)
    add(a + e, d, b + c, 1)  # (0,2)
    add(d + e, a + b, c, 1)  # (1,1)
    add(d + e, c, a + b, 1)  # (2,2)
    add(c + e, a, b + d, 1)  # (1,2)
    add(c + e, b + d, a, 1)  # (2,1)
    # v != 0: eight families per shift weight i, each 2^i C(m, i) strong
    for i in range(1, m + 1):
        alpha, beta, gamma, delta = p.greek(i)
        count = gf3.count_vectors_of_weight(m, i)
        add(half - 1 - (beta + gamma + delta), half + beta + gamma, half + delta, count)  # (0,1)
        add(half - 1 - (beta + gamma + delta), half + delta, half + beta + gamma, count)  # (0,2)
        add(half - 1 - (alpha + gamma + delta), half + alpha + gamma + delta, half, count)  # (1,0)
        add(half - 1 - (alpha + gamma + delta), half, half + alpha + gamma + delta, count)  # (2,0)
        add(half - 1 - (alpha + beta + gamma), half + alpha + beta, half + gamma, count)  # (1,1)
        add(half - 1 - (alpha + beta + gamma), half + gamma, half + alpha + beta, count)  # (2,2)
        add(half - 1 - (alpha + beta + delta), half + alpha, half + beta + delta, count)  # (1,2)
        add(half - 1 - (alpha + beta + delta), half + beta + delta, half + alpha, count)  # (2,1)
    return CompleteWeightEnumerator(terms)


@dataclass(frozen=True)
class ExtremesReport:
    wmin: int
    wmax: int
    ab_satisfied: bool
    ratio_le_two_thirds: bool

    def to_json_obj(self) -> dict:
        return {
            "wmin": self.wmin,
            "wmax": self.wmax,
            "ashikhmin_barg_satisfied": self.ab_satisfied,
            "ratio_le_two_thirds": self.ratio_le_two_thirds,
        }


def extremes_report(p: HWParams) -> ExtremesReport:
    """Extreme weights in closed form plus the two equivalent ratio tests."""
    m, k1, k2 = p.m, p.k1, p.k2
    wmin = sum(2**j * binomial(m, j) for j in range(1, k2))
    wmax = gf3.pow3(m) - 3 ** (m - 1) + 2**k2 * binomial(m - 1, k2) - 2 ** (k1 - 1) * binomial(m - 1, k1 - 1)
    ab = ashikhmin_barg(wmin, wmax)
    ratio = 3 * wmin <= 4 * 3 ** (m - 1) + 2 ** (k2 + 1) * binomial(m - 1, k2) - 2**k1 * binomial(m - 1, k1 - 1)
    assert ratio == (3 * wmin <= 2 * wmax), "the two ratio predicates must agree"
    return ExtremesReport(wmin, wmax, ab, ratio)


def condition_report(
    p: HWParams,
    *,
    processes: int | None = None,
    budget_seconds: float | None = None,
    spec: CodeSpec | None = None,
) -> dict:
    """Per-condition pass/fail of the spectral criterion on the built code.

    Runs :func:`spectral_check` once in per-condition mode: the built
    spectra are weight-symmetric, so a code clean on all three conditions
    is certified by the orbit pre-check, and a violated one is swept.
    """
    if spec is None:
        spec = build_spec(p)
    verdict: MinimalityVerdict = spectral_check(
        spec, per_condition=True, processes=processes, budget_seconds=budget_seconds
    )
    violated = {w.condition for w in verdict.witnesses}
    return {
        "triple_minus": "triple-minus" not in violated,
        "triple_plus": "triple-plus" not in violated,
        "mixed_pair": "mixed-pair" not in violated,
        "minimal": verdict.minimal,
        "checks": verdict.checks,
    }
