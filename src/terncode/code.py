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
with N1/N2 swapped (sign -1).  Either enumerator sorts 3^m integer keys
per member, then merges the distinct values of all four members with one
sort and one ``np.add.reduceat``.  The merge costs little when the spectra
take few values (a weight-symmetric pair such as a shell code) and about
half the time when they take many (a random pair).  A complete weight
enumerator is kept as two arrays, its distinct exponent triples in
lexicographic order and their multiplicities.
"""

from __future__ import annotations

import bisect
from collections.abc import ItemsView, Mapping, ValuesView
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


class _Terms(Mapping):
    """Read-only mapping (t0, t1, t2) -> multiplicity over the arrays of a
    ``CompleteWeightEnumerator``; lookups bisect the sorted rows."""

    __slots__ = ("_exponents", "_counts")

    def __init__(self, exponents: np.ndarray, counts: np.ndarray):
        self._exponents = exponents
        self._counts = counts

    def __len__(self) -> int:
        return self._counts.size

    def __iter__(self):
        return map(tuple, self._exponents.tolist())

    def __getitem__(self, key) -> int:
        i = bisect.bisect_left(self._exponents, key, key=lambda row: tuple(row.tolist()))
        if i == self._counts.size or tuple(self._exponents[i].tolist()) != key:
            raise KeyError(key)
        return int(self._counts[i])

    def items(self):
        return _TermItems(self)

    def values(self):
        return _TermValues(self)


class _TermItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._counts.tolist())


class _TermValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._counts.tolist())


class CompleteWeightEnumerator:
    """Multiset of exponent triples (t0, t1, t2) with multiplicities.

    Two read-only int64 arrays hold it: ``exponents``, the distinct triples
    as rows in lexicographic order, and ``counts``, their multiplicities.
    ``terms`` is a read-only mapping view (t0, t1, t2) -> multiplicity over
    them.  The constructor takes such a mapping (the closed forms build a
    dict); ``cwe`` builds the arrays directly.
    """

    __slots__ = ("exponents", "counts")
    __hash__ = None

    def __init__(self, terms: Mapping[tuple[int, int, int], int]):
        items = sorted(terms.items())
        self._keep(np.array([t for t, _ in items], np.int64).reshape(-1, 3),
                   np.array([c for _, c in items], np.int64))

    @classmethod
    def _from_sorted(cls, exponents: np.ndarray, counts: np.ndarray) -> "CompleteWeightEnumerator":
        """The enumerator of distinct rows ``exponents``, already in lexicographic order."""
        enum = cls.__new__(cls)
        enum._keep(exponents, counts)
        return enum

    def _keep(self, exponents: np.ndarray, counts: np.ndarray) -> None:
        exponents.setflags(write=False)
        counts.setflags(write=False)
        self.exponents = exponents
        self.counts = counts

    @property
    def terms(self) -> Mapping[tuple[int, int, int], int]:
        return _Terms(self.exponents, self.counts)

    def total(self) -> int:
        return int(self.counts.sum())

    def sorted_items(self) -> list[tuple[tuple[int, int, int], int]]:
        return list(zip(map(tuple, self.exponents.tolist()), self.counts.tolist()))

    def columns(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """The lists of t0, t1, t2 and multiplicity, term by term in lexicographic order."""
        return (*self.exponents.T.tolist(), self.counts.tolist())

    def weight_marginal(self) -> WeightDistribution:
        weights, counts = _merge(self.exponents[:, 1] + self.exponents[:, 2], self.counts)
        return WeightDistribution(dict(zip(weights.tolist(), counts.tolist())))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompleteWeightEnumerator)
            and np.array_equal(self.exponents, other.exponents)
            and np.array_equal(self.counts, other.counts)
        )


def _runs(keys: np.ndarray) -> np.ndarray:
    """The bounds b of the runs of equal values in the sorted ``keys``: run i is keys[b[i]:b[i + 1]]."""
    edge = np.empty(keys.size + 1, bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    return np.flatnonzero(edge)


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the sorted ``keys``, each with its number of occurrences."""
    bounds = _runs(keys)
    return keys[bounds[:-1]], bounds[1:] - bounds[:-1]


def _merge(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` ascending, each with the sum of its ``counts``."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = _runs(keys)[:-1]
    return keys[starts], np.add.reduceat(counts[order], starts)


def weight_distribution(spec: CodeSpec) -> WeightDistribution:
    """Aggregate weights over all (u, r, v) from the four spectra.

    One sort of rd per family member, counted once per sign, then one
    merge of the four with the zero word and the 3^m - 1 simplex words.
    """
    m = spec.m
    total = gf3.pow3(m)
    simplex = 2 * 3 ** (m - 1)
    # the zero word and the 3^m - 1 simplex words (u = r = 0, v != 0)
    weights, counts = [np.int64([0, simplex])], [np.int64([1, total - 1])]
    for name in FAMILY_NAMES:
        values, c = _distinct(np.sort(spec.spectra[name].rd))
        if (values % 3).any():
            raise ConsistencyError("doubled real part not divisible by 3")
        weights.append(simplex - values.astype(np.int64) // 3)
        counts.append(2 * c)
    weights, counts = _merge(np.concatenate(weights), np.concatenate(counts))
    dist = WeightDistribution(dict(zip(weights.tolist(), counts.tolist())))
    if dist.total() != spec.codeword_count:
        raise ConsistencyError("weight distribution does not cover 3^(m+2) codewords")
    if dist.entries.get(0) != 1:
        raise ConsistencyError("weight 0 must occur exactly once")
    return dist


# -3^m <= rd <= 2*3^m and 0 <= N1 <= 3^m, so the member key satisfies
# |key| <= 2*3^m*(3^m + 1) < 2^63 at MAX_M: it is exact in int64.
assert 2 * 3**gf3.MAX_M * (3**gf3.MAX_M + 1) < 2**63, "int64 CWE key overflows at MAX_M"
# 0 <= t0, t1 <= 3^m - 1, so the merge key t0*3^m + t1 < 3^(2m) < 2^63 at MAX_M.
assert 3 ** (2 * gf3.MAX_M) < 2**63, "int64 CWE merge key overflows at MAX_M"


def _member_terms(sp: CountSpectrum, total: int) -> tuple[np.ndarray, ...]:
    """The distinct (t0, N1, N2) of one spectrum, t0 = N0 - 1, with their multiplicities.

    The key -rd*(3^m + 1) + N1 is one-to-one in (N1, N2), since
    0 <= N1 <= 3^m and N1 + N2 = (2*3^m - rd)/3; it decodes as
    rd = -(key // (3^m + 1)), N1 = key % (3^m + 1).  N0 = (3^m + rd)/3, less
    the x = 0 coordinate, always of value 0.
    """
    base = total + 1
    keys = np.multiply(sp.rd, -base, dtype=np.int64)
    keys += sp.n1
    keys.sort()
    keys, counts = _distinct(keys)
    neg_rd, n1 = np.divmod(keys, base)
    return (total - neg_rd) // 3 - 1, n1, (2 * total + neg_rd) // 3 - n1, counts


def cwe(spec: CodeSpec) -> CompleteWeightEnumerator:
    """Complete weight enumerator aggregated from the four spectra.

    One in-place sort of 1-D keys in (rd, N1) per family member, counted by
    runs; each distinct count pair gives the sign +1 term (t0, N1, N2) and,
    with N1/N2 swapped, the sign -1 term.  The eight signed term sets and
    the two fixed terms (the zero word and the 3^m - 1 simplex words) are
    then merged by one sort of the int64 key t0*3^m + t1, whose order is the
    lexicographic order of (t0, t1, t2), and one ``np.add.reduceat``.
    """
    m = spec.m
    total = gf3.pow3(m)
    third = 3 ** (m - 1)
    # the keys of the zero word and of the 3^m - 1 simplex words (u = r = 0, v != 0)
    keys = [np.int64([total - 1, third - 1]) * total + [0, third]]
    counts = [np.int64([1, total - 1])]
    for name in FAMILY_NAMES:
        t0, n1, n2, c = _member_terms(spec.spectra[name], total)
        if min(t0.min(), n1.min(), n2.min()) < 0:
            raise ConsistencyError("CWE exponent triple is negative")
        if (t0 + n1 + n2 != total - 1).any():
            raise ConsistencyError("CWE exponent triple does not sum to 3^m - 1")
        t0 *= total
        keys += [t0 + n1, t0 + n2]  # signs +1 and -1
        counts += [c, c]
    counts = np.concatenate(counts)
    if counts.sum() != spec.codeword_count:
        raise ConsistencyError("CWE multiplicities do not cover 3^(m+2) codewords")
    keys, counts = _merge(np.concatenate(keys), counts)
    t0, t1 = np.divmod(keys, total)
    return CompleteWeightEnumerator._from_sorted(np.column_stack((t0, t1, total - 1 - t0 - t1)), counts)


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
        obj["cwe"] = np.column_stack((cwe_terms.exponents, cwe_terms.counts)).tolist()
    return obj


def weights_csv(weights: WeightDistribution) -> str:
    lines = ["weight,count"]
    lines.extend(f"{w},{c}" for w, c in weights.sorted_items())
    return "\n".join(lines) + "\n"


def cwe_csv(cwe_terms: CompleteWeightEnumerator) -> str:
    lines = ["t0,t1,t2,count"]
    lines.extend(f"{t0},{t1},{t2},{c}" for t0, t1, t2, c in zip(*cwe_terms.columns()))
    return "\n".join(lines) + "\n"
