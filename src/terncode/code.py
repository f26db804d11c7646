"""The generic ternary code built from a pair of functions on F_3^m.

A validated pair (f, g) determines the code whose codewords are

    c(u, r, v) = (u f(x) + r g(x) + v . x)  over nonzero x in F_3^m,

for u, r in F_3 and v in F_3^m: length 3^m - 1, dimension m + 2.  It is the
row space of the (m + 2) x (3^m - 1) generator matrix whose column at x is
(x, g(x), f(x)): the message (v, r, u) times it is c(u, r, v).  Codewords
are materialized (small m only) as such products, in int8.  The
validation hypotheses apply to every member of the four-function family
{f, g, f+g, f-g}: nonzero, vanishing at 0, and never equal to a linear
functional.

Weights and complete weight enumerators are computed from the four stored
count spectra without materializing codewords.  Each nonzero (u, r)
equals +/- one family member F, and the full-space character sum of the
codeword c(u, r, v) is F_hat at the shift -s*v (s the sign), so

    wt(c) = 2*3^(m-1) - rd(F, -s*v) / 3        (rd = doubled real part)

and the coordinate-value counts are the spectrum counts at that shift
(with N1/N2 swapped when s = -1, and the x = 0 coordinate, always of
value 0, removed from N0).

The enumerators need only multisets over v, and v -> -s*v is a bijection
of F_3^m, so the multiset of (N0, N1, N2) at the shifts -s*v equals the
multiset of (N0, N1, N2)(w) over all w.  Hence each family member is
aggregated once, with no shift permutation: its multiset of rd values
counts twice in the weight distribution (signs +1 and -1), and each of
its (N0 - 1, N1, N2) terms enters the CWE once as is (sign +1) and once
with N1/N2 swapped (sign -1).  Either enumerator costs about one sort of
3^m integer keys per member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf3
from .errors import CapacityError, ConsistencyError, ValidationError
from .spectrum import CountSpectrum, TernaryFunction, combine, count_spectra

FAMILY_NAMES = ("f", "g", "f+g", "f-g")

# (u, r) -> (family member, sign) with u*f + r*g == sign * member pointwise
UR_TO_FAMILY: dict[tuple[int, int], tuple[str, int]] = {
    (1, 0): ("f", +1),
    (2, 0): ("f", -1),
    (0, 1): ("g", +1),
    (0, 2): ("g", -1),
    (1, 1): ("f+g", +1),
    (2, 2): ("f+g", -1),
    (1, 2): ("f-g", +1),
    (2, 1): ("f-g", -1),
}

# canonical (u, r) for each literal family member
FAMILY_TO_UR = {"f": (1, 0), "g": (0, 1), "f+g": (1, 1), "f-g": (1, 2)}


# ---------------------------------------------------------------------------
# Validated code specification
# ---------------------------------------------------------------------------


class CodeSpec:
    """A validated (m, f, g) pair with the four family spectra attached."""

    __slots__ = ("m", "f", "g", "family", "spectra")

    def __init__(self, m: int, f: TernaryFunction, g: TernaryFunction,
                 family: dict[str, TernaryFunction], spectra: dict[str, CountSpectrum]):
        self.m = m
        self.f = f
        self.g = g
        self.family = family
        self.spectra = spectra

    @property
    def length(self) -> int:
        return gf3.pow3(self.m) - 1

    @property
    def dimension(self) -> int:
        return self.m + 2

    @property
    def codeword_count(self) -> int:
        return 3 ** (self.m + 2)


def validate(m: int, f: TernaryFunction, g: TernaryFunction) -> CodeSpec:
    """Check the construction hypotheses and return a spec, or raise.

    The rejection names the offending family member and, for a linear
    coincidence, the witness shift index.
    """
    gf3.check_dimension(m)
    if f.m != m or g.m != m:
        raise ValueError(f"function dimensions ({f.m}, {g.m}) do not match m={m}")
    family = {
        "f": f,
        "g": g,
        "f+g": combine(1, 1, f, g),
        "f-g": combine(1, 2, f, g),
    }
    spectra = dict(zip(family, count_spectra(family.values())))
    for name, F in family.items():
        if F.is_zero():
            raise ValidationError(
                f"family member {name} is the zero function",
                function_name=name, hypothesis="non-zero",
            )
        if F.value(0) != 0:
            raise ValidationError(
                f"family member {name} does not vanish at 0 (value {F.value(0)})",
                function_name=name, hypothesis="vanishes-at-zero",
            )
        coincide = np.flatnonzero(spectra[name].rd == 2 * gf3.pow3(m))
        if coincide.size:
            raise ValidationError(
                f"family member {name} equals the linear functional with index {int(coincide[0])}",
                function_name=name, hypothesis="linear-coset-free", witness=int(coincide[0]),
            )
    return CodeSpec(m, f, g, family, spectra)


# ---------------------------------------------------------------------------
# Weights and enumerators from the stored spectra
# ---------------------------------------------------------------------------


def _exact_third(value: int) -> int:
    if value % 3:
        raise ConsistencyError(f"doubled real part {value} not divisible by 3")
    return value // 3


def weight_of(spec: CodeSpec, u: int, r: int, v: int) -> int:
    """Hamming weight of the codeword with parameters (u, r, v)."""
    u, r = u % 3, r % 3
    if not 0 <= v < gf3.pow3(spec.m):
        raise ValueError(f"shift index {v} out of range")
    if (u, r) == (0, 0):
        return 0 if v == 0 else 2 * 3 ** (spec.m - 1)
    name, sign = UR_TO_FAMILY[(u, r)]
    shift = gf3.neg_index(spec.m, v) if sign > 0 else v
    rd = int(spec.spectra[name].rd[shift])
    return 2 * 3 ** (spec.m - 1) - _exact_third(rd)


@dataclass(frozen=True)
class WeightDistribution:
    """Map weight -> number of codewords, over all 3^(m+2) codewords."""

    entries: dict[int, int]

    def total(self) -> int:
        return sum(self.entries.values())

    def min_nonzero(self) -> int:
        return min(w for w in self.entries if w > 0)

    def max_weight(self) -> int:
        return max(self.entries)

    def sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self.entries.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightDistribution) and self.entries == other.entries


@dataclass(frozen=True)
class CompleteWeightEnumerator:
    """Multiset of exponent triples (t0, t1, t2) with multiplicities."""

    terms: dict[tuple[int, int, int], int]

    def total(self) -> int:
        return sum(self.terms.values())

    def sorted_items(self) -> list[tuple[tuple[int, int, int], int]]:
        return sorted(self.terms.items())

    def weight_marginal(self) -> WeightDistribution:
        entries: dict[int, int] = {}
        for (t0, t1, t2), mult in self.terms.items():
            w = t1 + t2
            entries[w] = entries.get(w, 0) + mult
        return WeightDistribution(entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, CompleteWeightEnumerator) and self.terms == other.terms


def weight_distribution(spec: CodeSpec) -> WeightDistribution:
    """Aggregate weights over all (u, r, v) from the four spectra.

    One ``unique`` of rd per family member, counted once per sign.
    """
    m = spec.m
    total = gf3.pow3(m)
    entries: dict[int, int] = {0: 1}
    entries[2 * 3 ** (m - 1)] = entries.get(2 * 3 ** (m - 1), 0) + total - 1
    for name in FAMILY_NAMES:
        values, counts = np.unique(spec.spectra[name].rd, return_counts=True)
        if (values % 3).any():
            raise ConsistencyError("doubled real part not divisible by 3")
        for value, c in zip(values.tolist(), counts.tolist()):
            w = 2 * 3 ** (m - 1) - value // 3
            entries[w] = entries.get(w, 0) + 2 * c
    dist = WeightDistribution(entries)
    if dist.total() != spec.codeword_count:
        raise ConsistencyError("weight distribution does not cover 3^(m+2) codewords")
    if dist.entries.get(0) != 1:
        raise ConsistencyError("weight 0 must occur exactly once")
    return dist


def cwe(spec: CodeSpec) -> CompleteWeightEnumerator:
    """Complete weight enumerator aggregated from the four spectra.

    One in-place sort of 1-D (N1, N2) keys per family member, counted by
    runs; each distinct count pair gives the sign +1 term and, with N1/N2
    swapped, the sign -1 term.
    """
    m = spec.m
    total = gf3.pow3(m)
    terms: dict[tuple[int, int, int], int] = {(total - 1, 0, 0): 1}
    simplex = (3 ** (m - 1) - 1, 3 ** (m - 1), 3 ** (m - 1))
    terms[simplex] = terms.get(simplex, 0) + total - 1
    # N1, N2 <= 3^m, so key = N1*(3^m + 1) + N2 < (3^m + 1)^2 <= 1.9e15 < 2^63
    # for m <= MAX_M = 16.  t0 is implied: N0 = 3^m - N1 - N2 (derived; the
    # CountSpectrum checks N1 + N2 <= 3^m), less the x = 0 coordinate, always
    # of value 0.
    base = total + 1
    # one int64 key buffer and one run-start mask serve all four members;
    # the keys are built and sorted in place
    keys = np.empty(total, np.int64)
    run_start = np.empty(total, bool)
    run_start[0] = True
    for name in FAMILY_NAMES:
        sp = spec.spectra[name]
        np.multiply(sp.n1, base, out=keys, dtype=np.int64)
        keys += sp.n2
        keys.sort()
        np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
        starts = np.flatnonzero(run_start)
        counts = np.diff(starts, append=total)
        n1, n2 = np.divmod(keys[starts], base)
        for t1, t2, c in zip(n1.tolist(), n2.tolist(), counts.tolist()):
            t0 = total - 1 - t1 - t2
            for key in ((t0, t1, t2), (t0, t2, t1)):
                terms[key] = terms.get(key, 0) + c
    result = CompleteWeightEnumerator(terms)
    if result.total() != spec.codeword_count:
        raise ConsistencyError("CWE multiplicities do not cover 3^(m+2) codewords")
    if any(min(t) < 0 or sum(t) != total - 1 for t in terms):
        raise ConsistencyError("CWE exponent triple is negative or does not sum to 3^m - 1")
    return result


# ---------------------------------------------------------------------------
# Materialized codewords (small m)
# ---------------------------------------------------------------------------

MATERIALIZE_MAX_M = 10


@dataclass(frozen=True)
class Codeword:
    u: int
    r: int
    v: int
    word: np.ndarray  # int8, length 3^m - 1, coordinates over nonzero x ascending

    def hamming_weight(self) -> int:
        return int(np.count_nonzero(self.word))


# An entry of a message times G sums m + 2 products of digits, each at most
# 2*2 = 4, so it is at most 4*(MAX_M + 2) = 72 and the int8 product is exact.
assert 4 * (gf3.MAX_M + 2) < 2**7, "int8 codeword products overflow at MAX_M"


def _generator_matrix(spec: CodeSpec) -> np.ndarray:
    """The (m + 2, 3^m - 1) int8 generator matrix: rows x (m digits), g, f over nonzero x."""
    rows = (gf3.digits_table(spec.m), spec.g.table[None], spec.f.table[None])
    return np.concatenate(rows)[:, 1:]


def materialize(spec: CodeSpec, u: int, r: int, v: int) -> Codeword:
    if spec.m > MATERIALIZE_MAX_M:
        raise CapacityError(f"materialize supports m <= {MATERIALIZE_MAX_M}, got m={spec.m}")
    if not 0 <= v < gf3.pow3(spec.m):
        raise ValueError(f"shift index {v} out of range")
    u, r = u % 3, r % 3
    message = np.append(gf3.digits_table(spec.m)[:, v], np.int8([r, u]))
    cw = Codeword(u, r, v, message @ _generator_matrix(spec) % 3)
    if cw.hamming_weight() != weight_of(spec, u, r, v):
        raise ConsistencyError(
            f"materialized weight {cw.hamming_weight()} disagrees with spectrum weight for (u={u}, r={r}, v={v})"
        )
    return cw


def codeword_rows(spec: CodeSpec, rows) -> np.ndarray:
    """The codewords of the messages with base-3 indices ``rows``, as an int8 matrix.

    Index (3u + r)*3^m + v is the message of c(u, r, v).  Index 0 is the
    zero word, and negating a word negates its message, so -c has index
    ``gf3.neg_perm(m + 2)[i]``.  Small-m helper for brute-force work
    (m <= 5).

    The product is formed by blocks of the generator matrix G: the low m
    message digits give v.x = ``digits_table(m).T @ G[:m]`` (3^m rows) and
    the top two give r*g + u*f = ``digits_table(2).T @ G[m:]`` (9 rows), so
    the word of index i is the sum mod 3 of row i // 3^m of the one and
    row i % 3^m of the other.
    """
    m = spec.m
    if m > 5:
        raise CapacityError(f"codeword rows support m <= 5, got m={m}")
    rows = np.asarray(rows, dtype=np.int64)
    total = gf3.pow3(m)
    gen = _generator_matrix(spec)
    words = (gf3.digits_table(2).T @ gen[m:])[rows // total]
    words += (gf3.digits_table(m).T @ gen[:m])[rows % total]
    words %= 3
    return words


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def result_json_obj(
    m: int,
    *,
    weights: WeightDistribution | None = None,
    cwe_terms: CompleteWeightEnumerator | None = None,
) -> dict:
    obj: dict = {"m": m, "length": gf3.pow3(m) - 1, "dimension": m + 2}
    if weights is not None:
        obj["weights"] = [[w, c] for w, c in weights.sorted_items()]
    if cwe_terms is not None:
        obj["cwe"] = [[t0, t1, t2, c] for (t0, t1, t2), c in cwe_terms.sorted_items()]
    return obj


def weights_csv(weights: WeightDistribution) -> str:
    lines = ["weight,count"]
    lines.extend(f"{w},{c}" for w, c in weights.sorted_items())
    return "\n".join(lines) + "\n"


def cwe_csv(cwe_terms: CompleteWeightEnumerator) -> str:
    lines = ["t0,t1,t2,count"]
    lines.extend(f"{t0},{t1},{t2},{c}" for (t0, t1, t2), c in cwe_terms.sorted_items())
    return "\n".join(lines) + "\n"
