"""Minimality certification for the ternary codes of :mod:`terncode.code`.

Three independent certifiers:

* ``is_minimal_bruteforce``: the definition itself.  Materializes every
  codeword and tests all ordered support inclusions (m <= 5).
* ``spectral_check``: the exact spectral criterion.  Up to scalar
  multiples, every codeword is s_v (a purely linear word) or F + s_v with
  F one of the four literal family members, and support covering between
  two codewords reduces, through the weight identity
  ``wt(c1+c2) + wt(c1-c2) = 2 wt(c1) - wt(c2)``, to an exact equation on
  doubled real parts of the family transforms.  Concretely, with
  RD(F, w) = 2*Re(F_hat(w)) and target T = 2*3^m:

  - condition "triple-plus": RD(F,v1) + RD(F,v2) + RD(F,v3) != T for all
    distinct triples v1+v2+v3 = 0   (a linear word covering F + s_b);
  - condition "triple-minus": RD(F,v1) + RD(F,v2) - 2*RD(F,v3) != T for the
    same triples   (same-F pairs, and F + s_b covering a linear word);
  - condition "mixed-pair": for ordered F1 != F2 and all (v1, v2),
    RD(F1+F2, v1+v2) + RD(F1-F2, v1-v2) - 2*RD(F1, v1) + RD(F2, v2) != T.

  Sums and differences F1 +/- F2 are again +/- a family member, and
  RD(-F, w) = RD(F, -w), so four spectra feed the whole sweep.  Every
  violation maps back to an explicit covering codeword pair.
* ``ashikhmin_barg``: the classical sufficient ratio test, in cross-
  multiplied integers.

``spectral_sweep`` evaluates the criterion on all 3^(2m) pairs (v1, v2).
It is vectorized over v2 in fixed-size v1 blocks and can shard v1 ranges
across worker processes; scan order (and therefore the first witness
reported) and the check count are independent of the worker count.

``spectral_check`` first runs an orbit pre-check.  When every family
spectrum is constant on Hamming-weight classes (the shell construction of
:mod:`terncode.hwconstruct` defines f and g through wt(x) only), each
condition depends on (v1, v2) only through its orbit under the monomial
group, i.e. the composition (n0, na, nb, nc, nd) of m into the coordinate
types (0,0), (x,0), (0,y), (x,x), (x,-x) -- the classes of the ternary
Hamming association scheme.  The weights are linear in the composition:
wt(v1) = na+nc+nd, wt(v2) = nb+nc+nd, wt(v1+v2) = wt(v3) = na+nb+nc and
wt(v1-v2) = na+nb+nd, and v1 = v2 exactly when na = nb = nd = 0.  So the
C(m+4, 4) compositions decide the criterion (495 at m = 8, against 3^16
pairs).  If no orbit violates a condition, the verdict is the one a clean
sweep reports, check count included; otherwise, or when the spectra are
not weight-symmetric, the sweep runs unchanged and supplies the witnesses.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError  # not the builtin before 3.11
from dataclasses import dataclass, field

import numpy as np

from . import gf3
from .code import FAMILY_NAMES, FAMILY_TO_UR, CodeSpec, all_codewords_matrix, materialize
from .errors import CapacityError, ConsistencyError

THREADS_ENV_VAR = "TERNCODE_THREADS"

_BLOCK = 64  # fixed v1 block height; must not vary with the worker count
_CHUNK = 512  # v1 rows per scheduled chunk

# ordered (F1, F2) with F1+F2 and F1-F2 resolved to (member, sign),
# sign -1 meaning the pointwise negation of the member
PAIR_ALGEBRA: tuple[tuple[str, str, tuple[str, int], tuple[str, int]], ...] = (
    ("f", "g", ("f+g", +1), ("f-g", +1)),
    ("f", "f+g", ("f-g", -1), ("g", -1)),
    ("f", "f-g", ("f+g", -1), ("g", +1)),
    ("g", "f", ("f+g", +1), ("f-g", -1)),
    ("g", "f+g", ("f-g", +1), ("f", -1)),
    ("g", "f-g", ("f", +1), ("f+g", -1)),
    ("f+g", "f", ("f-g", -1), ("g", +1)),
    ("f+g", "g", ("f-g", +1), ("f", +1)),
    ("f+g", "f-g", ("f", -1), ("g", -1)),
    ("f-g", "f", ("f+g", -1), ("g", -1)),
    ("f-g", "g", ("f", +1), ("f+g", +1)),
    ("f-g", "f+g", ("f", -1), ("g", +1)),
)

ALL_CONDITIONS = ("triple-minus", "triple-plus", "mixed-pair")


# ---------------------------------------------------------------------------
# Support covering
# ---------------------------------------------------------------------------


def covers(a, b) -> bool:
    """True iff Supp(b) is contained in Supp(a).

    Computed directly and cross-checked against the weight identity
    wt(a+b) + wt(a+2b) = 2*wt(a) - wt(b); disagreement is a bug.
    """
    a = np.asarray(a, dtype=np.int16) % 3
    b = np.asarray(b, dtype=np.int16) % 3
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    direct = not np.any((b != 0) & (a == 0))
    wt_a = int(np.count_nonzero(a))
    wt_b = int(np.count_nonzero(b))
    identity = (
        int(np.count_nonzero((a + b) % 3)) + int(np.count_nonzero((a + 2 * b) % 3))
        == 2 * wt_a - wt_b
    )
    if direct != identity:
        raise ConsistencyError("support inclusion and the weight identity disagree")
    return direct


def ashikhmin_barg(wmin: int, wmax: int) -> bool:
    """Sufficient minimality test wmin/wmax > 2/3, cross-multiplied."""
    if not 0 < wmin <= wmax:
        raise ValueError(f"need 0 < wmin <= wmax, got ({wmin}, {wmax})")
    return 3 * wmin > 2 * wmax


# ---------------------------------------------------------------------------
# Verdicts and witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverWitness:
    """word(b_params) is covered by word(a_params); params are (u, r, v)."""

    a_params: tuple[int, int, int]
    b_params: tuple[int, int, int]

    def to_json_obj(self) -> dict:
        return {"kind": "cover", "a": list(self.a_params), "b": list(self.b_params)}


@dataclass(frozen=True)
class SpectralWitness:
    condition: str  # "triple-minus", "triple-plus", "mixed-pair"
    functions: tuple[str, ...]
    vectors: tuple[int, ...]  # (v1, v2, v3) for the triple conditions, (v1, v2) for mixed-pair
    covering_pair: tuple[tuple[int, int, int], tuple[int, int, int]]

    def to_json_obj(self) -> dict:
        return {
            "kind": "spectral",
            "condition": self.condition,
            "functions": list(self.functions),
            "vectors": list(self.vectors),
            "covering_pair": [list(self.covering_pair[0]), list(self.covering_pair[1])],
        }


@dataclass
class MinimalityVerdict:
    minimal: bool
    method: str  # "cover-oracle" or "spectral"
    witnesses: list = field(default_factory=list)
    checks: int = 0

    def __post_init__(self):
        if self.minimal != (len(self.witnesses) == 0):
            raise ConsistencyError("verdict minimal flag inconsistent with witnesses")

    def to_json_obj(self) -> dict:
        return {
            "minimal": self.minimal,
            "method": self.method,
            "checks": self.checks,
            "witnesses": [w.to_json_obj() for w in self.witnesses],
        }


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

BRUTEFORCE_MAX_M = 5


def is_minimal_bruteforce(spec: CodeSpec, max_witnesses: int = 1) -> MinimalityVerdict:
    """Check every ordered pair of nonzero, non-proportional codewords."""
    if spec.m > BRUTEFORCE_MAX_M:
        raise CapacityError(f"brute-force oracle supports m <= {BRUTEFORCE_MAX_M}, got m={spec.m}")
    total = gf3.pow3(spec.m)
    words, labels = all_codewords_matrix(spec)
    supports = words != 0
    n_rows = len(labels)

    def row_of(u: int, r: int, v: int) -> int:
        return (u * 3 + r) * total + v

    partner = np.empty(n_rows, dtype=np.int64)
    neg = gf3.neg_perm(spec.m)
    for i, (u, r, v) in enumerate(labels):
        partner[i] = row_of((2 * u) % 3, (2 * r) % 3, int(neg[v]))
    zero_row = row_of(0, 0, 0)

    witnesses: list[CoverWitness] = []
    checks = 0
    for a_row in range(n_rows):
        if a_row == zero_row:
            continue
        covered = ~(supports & ~supports[a_row]).any(axis=1)
        covered[a_row] = False
        covered[partner[a_row]] = False
        covered[zero_row] = False
        checks += n_rows - 3
        for b_row in np.flatnonzero(covered):
            witnesses.append(CoverWitness(labels[a_row], labels[int(b_row)]))
            if len(witnesses) >= max_witnesses:
                return MinimalityVerdict(False, "cover-oracle", witnesses, checks)
    return MinimalityVerdict(not witnesses, "cover-oracle", witnesses, checks)


# ---------------------------------------------------------------------------
# Spectral criterion sweep
# ---------------------------------------------------------------------------


def _build_ctx(m: int, rd_by_name: dict[str, np.ndarray]) -> dict:
    neg = gf3.neg_perm(m)
    rds = {}
    for name, rd in rd_by_name.items():
        rds[(name, +1)] = rd
        rds[(name, -1)] = rd[neg]
    return {
        "m": m,
        "total": gf3.pow3(m),
        "target": 2 * gf3.pow3(m),
        "neg": neg,
        "rd": rd_by_name,
        "rds": rds,
    }


def _scan_chunk(ctx: dict, start: int, end: int, mode: str, needed: tuple[str, ...],
                cap: int) -> tuple[list[tuple], dict[str, int]]:
    """Scan v1 in [start, end); return raw witness tuples and checks per condition.

    Scan order is fixed: v1 blocks ascending; within a block the triple
    conditions (family order, "triple-minus" then "triple-plus") before
    mixed-pair (pair order); hits within one comparison in row-major
    (v1, v2) order.
    """
    m, total, target = ctx["m"], ctx["total"], ctx["target"]
    neg, rd, rds = ctx["neg"], ctx["rd"], ctx["rds"]
    J = np.arange(total)
    need = set(needed)
    out: list[tuple] = []
    checks = dict.fromkeys(needed, 0)

    def take(hits: np.ndarray, v1_arr: np.ndarray, maker, label: str) -> bool:
        """Append hits; return True when this chunk is done scanning."""
        if not hits.any():
            return False
        locs = np.argwhere(hits)
        if mode == "exhaustive":
            for i, j in locs[: max(0, cap - len(out))]:
                out.append(maker(int(v1_arr[i]), int(j)))
            return len(out) >= cap
        i, j = locs[0]
        out.append(maker(int(v1_arr[i]), int(j)))
        if mode == "per-condition":
            need.discard(label)
            return not need
        return True  # mode "first"

    for b0 in range(start, end, _BLOCK):
        b1 = min(b0 + _BLOCK, end)
        v1 = np.arange(b0, b1)
        i_add = gf3.add_perm_rows(m, v1)  # idx(v1 + v2)
        i_sub = gf3.sub_perm_rows(m, v1)  # idx(v1 - v2)
        i_v3 = neg[i_add]  # idx(-(v1 + v2))
        if need & {"triple-minus", "triple-plus"}:
            # triples with v1 = v2 are the all-equal degenerate ones
            mask = J[None, :] != v1[:, None]
            n_masked = int(mask.sum())
            for name in FAMILY_NAMES:
                A = rd[name]
                base = A[v1][:, None] + A[None, :]
                a_v3 = A[i_v3]
                if "triple-minus" in need:
                    checks["triple-minus"] += n_masked
                    done = take(
                        ((base - 2 * a_v3) == target) & mask, v1,
                        lambda r, c, _n=name: ("triple-minus", _n, r, int(c), int(i_v3[r - b0, c])),
                        "triple-minus",
                    )
                    if done:
                        return out, checks
                if "triple-plus" in need:
                    checks["triple-plus"] += n_masked
                    done = take(
                        ((base + a_v3) == target) & mask, v1,
                        lambda r, c, _n=name: ("triple-plus", _n, r, int(c), int(i_v3[r - b0, c])),
                        "triple-plus",
                    )
                    if done:
                        return out, checks
        if "mixed-pair" in need:
            for f1, f2, sum_key, diff_key in PAIR_ALGEBRA:
                S = rds[sum_key][i_add] + rds[diff_key][i_sub]
                S += rd[f2][None, :] - 2 * rd[f1][v1][:, None]
                checks["mixed-pair"] += S.size
                done = take(
                    S == target, v1,
                    lambda r, c, _a=f1, _b=f2: ("mixed-pair", _a, _b, r, int(c)),
                    "mixed-pair",
                )
                if done:
                    return out, checks
    return out, checks


_WORKER_CTX: dict | None = None


def _init_worker(m: int, rd_by_name: dict[str, np.ndarray]) -> None:
    global _WORKER_CTX
    _WORKER_CTX = _build_ctx(m, rd_by_name)


def _chunk_task(args: tuple) -> tuple[list[tuple], dict[str, int]]:
    start, end, mode, needed, cap = args
    assert _WORKER_CTX is not None
    return _scan_chunk(_WORKER_CTX, start, end, mode, needed, cap)


def _resolve_processes(processes: int | None) -> int:
    if processes is None or processes == 0:
        env = os.environ.get(THREADS_ENV_VAR, "")
        if env.strip():
            processes = int(env)
        else:
            processes = os.cpu_count() or 1
    return max(1, int(processes))


def _raw_to_witness(m: int, raw: tuple) -> SpectralWitness:
    """Map a raw violation to the covering codeword pair it certifies."""
    if raw[0] == "triple-minus":
        _, name, v1, v2, v3 = raw
        u, r = FAMILY_TO_UR[name]
        pair = ((u, r, gf3.neg_index(m, v3)), (u, r, gf3.neg_index(m, v1)))
        return SpectralWitness("triple-minus", (name,), (v1, v2, v3), pair)
    if raw[0] == "triple-plus":
        _, name, v1, v2, v3 = raw
        u, r = FAMILY_TO_UR[name]
        pair = ((0, 0, gf3.sub_index(m, v2, v3)), (u, r, gf3.neg_index(m, v3)))
        return SpectralWitness("triple-plus", (name,), (v1, v2, v3), pair)
    _, f1, f2, v1, v2 = raw
    u1, r1 = FAMILY_TO_UR[f1]
    u2, r2 = FAMILY_TO_UR[f2]
    pair = ((u1, r1, gf3.neg_index(m, v1)), (u2, r2, gf3.neg_index(m, v2)))
    return SpectralWitness("mixed-pair", (f1, f2), (v1, v2), pair)


def _over_budget(done_chunks: int, n_chunks: int) -> CapacityError:
    return CapacityError(
        f"budget exceeded after {done_chunks}/{n_chunks} chunks",
        completed_fraction=done_chunks / n_chunks,
    )


def spectral_sweep(
    spec: CodeSpec,
    *,
    exhaustive: bool = False,
    per_condition: bool = False,
    max_witnesses: int = 1000,
    processes: int | None = None,
    budget_seconds: float | None = None,
) -> MinimalityVerdict:
    """Evaluate the exact spectral criterion on every pair (v1, v2).

    Default mode stops at the first violation; ``per_condition`` keeps
    scanning until each of the three conditions has either a witness or a
    clean sweep (used by the per-condition reports); ``exhaustive``
    collects up to ``max_witnesses`` violations.  ``budget_seconds`` caps
    wall-clock time and raises :class:`CapacityError` carrying the
    completed fraction.  Witnesses and the check count are deterministic
    for fixed inputs regardless of ``processes``.
    """
    m = spec.m
    rd_by_name = {name: spec.spectra[name].rd for name in FAMILY_NAMES}
    if exhaustive:
        mode, needed, cap = "exhaustive", ALL_CONDITIONS, max_witnesses
    elif per_condition:
        mode, needed, cap = "per-condition", ALL_CONDITIONS, 3
    else:
        mode, needed, cap = "first", ALL_CONDITIONS, 1

    total = gf3.pow3(m)
    chunks = [(s, min(s + _CHUNK, total)) for s in range(0, total, _CHUNK)]
    n_proc = _resolve_processes(processes)
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds

    raws: list[tuple] = []
    checks = 0
    satisfied: set[str] = set()

    def absorb(chunk_raws: list[tuple], chunk_checks: dict[str, int]) -> bool:
        """Merge one chunk's hits; return True when scanning may stop.

        A pooled chunk may scan a condition an earlier chunk already
        satisfied; its checks count only toward conditions still open.
        """
        nonlocal checks
        checks += sum(n for cond, n in chunk_checks.items() if cond not in satisfied)
        for raw in chunk_raws:
            if mode == "per-condition":
                if raw[0] in satisfied:
                    continue
                satisfied.add(raw[0])
            raws.append(raw)
        if mode == "first" and raws:
            return True
        if mode == "per-condition" and satisfied == set(ALL_CONDITIONS):
            return True
        if mode == "exhaustive" and len(raws) >= cap:
            return True
        return False

    if n_proc <= 1 or len(chunks) <= 1:
        ctx = _build_ctx(m, rd_by_name)
        for done_chunks, (start, end) in enumerate(chunks):
            if deadline is not None and time.monotonic() >= deadline:
                raise _over_budget(done_chunks, len(chunks))
            scan_needed = tuple(c for c in needed if c not in satisfied)
            if absorb(*_scan_chunk(ctx, start, end, mode, scan_needed, cap)):
                break
    else:
        with ProcessPoolExecutor(
            max_workers=n_proc, initializer=_init_worker, initargs=(m, rd_by_name)
        ) as pool:
            futures = [
                pool.submit(_chunk_task, (start, end, mode, needed, cap))
                for start, end in chunks
            ]
            try:
                for done_chunks, fut in enumerate(futures):
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        raise _over_budget(done_chunks, len(chunks))
                    try:
                        result = fut.result(timeout=remaining)
                    except FutureTimeoutError:
                        raise _over_budget(done_chunks, len(chunks)) from None
                    if absorb(*result):
                        break
            finally:
                for fut in futures:
                    fut.cancel()

    witnesses = [_raw_to_witness(m, raw) for raw in raws[:cap]]
    return MinimalityVerdict(not witnesses, "spectral", witnesses, checks)


# ---------------------------------------------------------------------------
# Orbit pre-check for weight-symmetric spectra
# ---------------------------------------------------------------------------


def orbit_violations(spec: CodeSpec) -> set[str] | None:
    """The conditions some (v1, v2) orbit violates, or None if the spectra
    are not all constant on Hamming-weight classes.

    Evaluates the same three conditions as :func:`spectral_sweep`, once
    per composition (n0, na, nb, nc, nd) of m (see the module docstring).
    """
    m = spec.m
    weights = gf3.weights_table(m)
    rd_w = {}
    for name in FAMILY_NAMES:
        rd = spec.spectra[name].rd
        rd_w[name] = np.zeros(m + 1, dtype=rd.dtype)
        rd_w[name][weights] = rd  # keeps one value per class; the gather below finds any other
        if not np.array_equal(rd_w[name][weights], rd):
            return None
    comps = np.indices((m + 1,) * 4).reshape(4, -1)
    na, nb, nc, nd = comps[:, comps.sum(axis=0) <= m]  # n0 is the remainder
    w1, w2 = na + nc + nd, nb + nc + nd
    w_sum, w_diff = na + nb + nc, na + nb + nd  # wt(v3) = wt(v1+v2)
    distinct = (na + nb + nd) > 0  # v1 = v2 (= v3) exactly when na = nb = nd = 0
    target = 2 * gf3.pow3(m)
    violated = set()
    for name in FAMILY_NAMES:
        A = rd_w[name]
        base = A[w1] + A[w2]
        if np.any(distinct & (base - 2 * A[w_sum] == target)):
            violated.add("triple-minus")
        if np.any(distinct & (base + A[w_sum] == target)):
            violated.add("triple-plus")
    # RD(-F, w) = RD(F, -w) and wt(-w) = wt(w): the signs of PAIR_ALGEBRA drop out
    for f1, f2, (sum_name, _), (diff_name, _) in PAIR_ALGEBRA:
        S = rd_w[sum_name][w_sum] + rd_w[diff_name][w_diff] - 2 * rd_w[f1][w1] + rd_w[f2][w2]
        if np.any(S == target):
            violated.add("mixed-pair")
    return violated


def spectral_check(
    spec: CodeSpec,
    *,
    exhaustive: bool = False,
    per_condition: bool = False,
    max_witnesses: int = 1000,
    processes: int | None = None,
    budget_seconds: float | None = None,
) -> MinimalityVerdict:
    """Evaluate the exact spectral minimality criterion.

    Same arguments and result as :func:`spectral_sweep`.  When the orbit
    pre-check finds weight-symmetric spectra and no violated orbit, the
    clean verdict is returned at once, with the check count of a clean
    sweep (8*(3^2m - 3^m) + 12*3^2m in every mode); otherwise the sweep
    runs on what is left of ``budget_seconds``.
    """
    started = time.monotonic()
    clean = orbit_violations(spec) == set()
    if budget_seconds is not None:
        budget_seconds -= time.monotonic() - started
    if clean and (budget_seconds is None or budget_seconds > 0):
        total = gf3.pow3(spec.m)
        return MinimalityVerdict(True, "spectral", [], 8 * (total * total - total) + 12 * total * total)
    return spectral_sweep(
        spec,
        exhaustive=exhaustive,
        per_condition=per_condition,
        max_witnesses=max_witnesses,
        processes=processes,
        budget_seconds=budget_seconds,
    )


def confirm_witness(spec: CodeSpec, witness) -> bool:
    """Materialize a witness's codeword pair and re-check the covering."""
    if isinstance(witness, SpectralWitness):
        a_params, b_params = witness.covering_pair
    else:
        a_params, b_params = witness.a_params, witness.b_params
    a = materialize(spec, *a_params)
    b = materialize(spec, *b_params)
    if a_params == b_params or not b.word.any():
        raise ConsistencyError("witness pair is degenerate")
    return covers(a.word, b.word)
