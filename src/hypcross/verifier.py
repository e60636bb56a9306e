"""Machine checks for every displayed inequality and identity in the sharp
lower-bound argument for twice-self-crossing geodesics.

Two chains are audited on dense grids:

* the long-loop case, driven by the one-variable bound
  T |-> log(T/(T-2)) + 2 log(T + sqrt(T^2+1)) on T > 2, whose minimum sits
  strictly above the sharp constant;
* the short-loop case, driven by concavity of the widened-collar arc length
  in the winding number and a monotone asinh difference whose infimum is
  2 asinh 4 - 2 asinh 2 > 1.06.

All checks return structured reports (pass flag, margin, witness point): a
failed check is reported with its offending grid point, not raised.  A margin
is the check's headroom, tolerance included, and a check passes exactly when
its margin is positive.  Only the sign-pattern grid of find_bound_minimum,
which is not a reported check, raises (ChainViolation).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import collar


class DomainError(ValueError):
    """Argument outside the domain T > 2 of the bound function."""


class BracketFailure(RuntimeError):
    """Bisection bracket endpoints do not have opposite derivative signs."""


class ChainViolation(RuntimeError):
    """A grid point violated one of the audited inequalities."""


# ---------------------------------------------------------------- constants

def sharp_bound_k1() -> float:
    """Least length of a closed geodesic with at least one self-crossing."""
    return 4.0 * math.log(1.0 + math.sqrt(2.0))


def sharp_bound_k2() -> float:
    """Least length of a closed geodesic with at least two self-crossings."""
    return 2.0 * math.log(5.0 + 2.0 * math.sqrt(6.0))


def corkscrew_length(k: int) -> float:
    """Length 2*acosh(2k+1) of the k-fold corkscrew on the three-cusp sphere."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 2.0 * math.acosh(2.0 * k + 1.0)


CASE_SPLIT = 1.06  # threshold separating the two proof cases
CORKSCREW_TABLE_LEN = 8  # corkscrews k = 1..8 in the constants table


@dataclass(frozen=True)
class ConstantsTable:
    bound_one_crossing: float
    bound_two_crossings: float
    gap: float
    case_split: float

    def as_dict(self) -> dict:
        return asdict(self) | {"corkscrew_lengths": {str(k): corkscrew_length(k) for k in range(1, CORKSCREW_TABLE_LEN + 1)}}


def constants() -> ConstantsTable:
    m1 = sharp_bound_k1()
    m2 = sharp_bound_k2()
    return ConstantsTable(m1, m2, m2 - m1, CASE_SPLIT)


# ------------------------------------------------------- reports & checks

@dataclass(frozen=True)
class CheckResult:
    id: str
    passed: bool
    margin: float
    witness: dict | None = None

    def as_dict(self) -> dict:
        d = {"id": self.id, "passed": self.passed, "margin": self.margin}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, id: str, margin: float, witness: dict | None = None) -> None:
        """Record check `id`, passed exactly when margin > 0: the headroom of
        the check's own condition, any tolerance included (`tol - x` for x < tol).
        A NaN or infinite margin fails the check: it is recorded as 0.0, no
        headroom measured, and a note names the id."""
        margin = float(margin)
        if not math.isfinite(margin):
            self.notes.append(f"{id}: non-finite margin {margin!r}")
            margin = 0.0
        self.checks.append(CheckResult(id, margin > 0, margin, witness))

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "config": self.config,
            "notes": self.notes,
        }


# ----------------------------------------------- long-loop bound function

def length_bound(T: float) -> float:
    """log(T/(T-2)) + 2*log(T + sqrt(T^2+1)) on T > 2: collar-crossing term
    plus winding-arc term of the long-loop length estimate."""
    if T <= 2.0:
        raise DomainError(f"bound requires T > 2, got {T}")
    return math.log(T / (T - 2.0)) + 2.0 * math.log(T + math.sqrt(T * T + 1.0))


def length_bound_deriv(T):
    """2/sqrt(T^2+1) - 2/(T(T-2)), the derivative of length_bound: a numpy
    float for a scalar T, an array for an array; DomainError unless all T > 2."""
    if np.min(T) <= 2.0:
        raise DomainError(f"bound requires T > 2, got {T}")
    return 2.0 / np.sqrt(T * T + 1.0) - 2.0 / (T * (T - 2.0))


@dataclass(frozen=True)
class RootBracket:
    lo: float
    hi: float
    root: float
    residual: float


def find_bound_minimum() -> RootBracket:
    """Bisect the derivative of length_bound over [3, 25/8].

    The derivative is negative at 3 and positive at 25/8, so the minimum of
    the bound on (2, inf) is bracketed there; sampled grids on both sides
    confirm the sign pattern (decreasing left of the root, increasing right).
    """
    lo, hi = 3.0, 25.0 / 8.0
    flo, fhi = length_bound_deriv(lo), length_bound_deriv(hi)
    if not (flo < 0.0 < fhi):
        raise BracketFailure(f"derivative signs at bracket: {flo}, {fhi}")
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if length_bound_deriv(mid) < 0.0:
            a = mid
        else:
            b = mid
    root = 0.5 * (a + b)
    residual = abs(length_bound_deriv(root))
    if residual > 1e-12:
        raise BracketFailure(f"bisection stalled with residual {residual}")
    dleft = length_bound_deriv(np.linspace(2.0 + 1e-9, root - 1e-9, 2000))
    dright = length_bound_deriv(np.geomspace(root + 1e-9, 1e6, 2000))
    if not (np.all(dleft < 0.0) and np.all(dright > 0.0)):
        raise ChainViolation("derivative sign pattern around the root failed")
    return RootBracket(lo, hi, root, residual)


# -------------------------------------------- widened-collar arc function

def _coshw1(t):
    """cosh(w1(2t)) = sqrt(1 + 1/sinh(t/2)^2), the wide-side collar factor."""
    return np.sqrt(1.0 + 1.0 / np.sinh(0.5 * t) ** 2)


def _arc(s, t, coshw1, out=None):
    """asinh(sinh(s*t) * coshw1); with `out`, every step writes into it."""
    x = np.multiply(s, t, out=out)
    x = np.sinh(x, out=out)
    x = np.multiply(x, coshw1, out=out)
    return np.arcsinh(x, out=out)


def half_collar_arc(s, t):
    """asinh(sinh(s*t) * cosh(w1(2t))): half the length of an arc of winding
    number s through the wide side of the asymmetric collar of a core of
    half-length t.  Accepts scalars or numpy arrays."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = _arc(s, t, _coshw1(t))
    return float(out) if out.ndim == 0 else out


def _case_split_T(t):
    """T = (e^t + 1)^2 / (2 e^t) = 2 cosh(t/2)^2, and the stable T - 2."""
    t = np.asarray(t, dtype=float)
    et = np.exp(t)
    T = (et + 1.0) ** 2 / (2.0 * et)
    Tm2 = np.expm1(t) ** 2 / (2.0 * et)
    return T, Tm2


_ROW_BLOCK = 8  # alpha rows per numpy call: each call must run long enough that its released GIL lets slices overlap


def _workers() -> int:
    """Usable CPUs: the affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _least(best, x, r0, ts):
    """The running (value, row, t) least after the block x, whose first row
    is grid row r0: x's smallest cell replaces best only when strictly below
    it, so best holds the first minimum in row-major order.  A non-finite
    cell fails the check: best becomes (-inf, row, t) at the first one,
    which no later cell goes below.  x is finite exactly when its smallest
    and largest cells are, and argmin already finds one of them, a NaN first."""
    if best[0] == -math.inf:
        return best
    i = int(np.argmin(x))
    v = float(x.flat[i])
    if not (math.isfinite(v) and math.isfinite(np.max(x))):
        i, v = int(np.argmin(np.isfinite(x))), -math.inf
    elif not v < best[0]:
        return best
    r, c = divmod(i, x.shape[1])
    return (v, r0 + r, float(ts[c]))


def _concavity_slice(alphas, ts, coshw1, ref):
    """Checks (a) and (b) on the column slice ts of every alpha row,
    _ROW_BLOCK rows per numpy call into three buffers of its own.

    Returns, as (value, row, t) (see _least), the least negated second
    difference 2 arc(alpha) - arc(alpha + h) - arc(alpha - h), the least
    increment gap (rows with alpha <= 1 only), and the least drop in
    increments from one row to the next."""
    f0, second, incr = (np.empty((_ROW_BLOCK + extra, len(ts))) for extra in (0, 0, 1))
    best_second = best_gap = best_drop = (math.inf, 0, None)
    for r0 in range(0, len(alphas), len(f0)):
        a = alphas[r0 : r0 + len(f0), None]
        nb = len(a)
        f, s, new = f0[:nb], second[:nb], incr[1 : nb + 1]
        h = 0.01 * a
        np.multiply(_arc(a, ts, coshw1, f), 2.0, out=f)
        # arc(alpha - h) borrows incr's rows before arc(alpha + 1) fills them
        np.add(_arc(a + h, ts, coshw1, s), _arc(a - h, ts, coshw1, new), out=s)
        np.subtract(f, s, out=s)
        best_second = _least(best_second, s, r0, ts)

        np.multiply(_arc(a + 1.0, ts, coshw1, new), 2.0, out=new)
        np.subtract(new, f, out=new)
        k = int(np.count_nonzero(a <= 1.0))  # alphas ascend: a prefix of the block
        if k:
            gap = np.subtract(new[:k], ref, out=s[:k])
            best_gap = _least(best_gap, gap, r0, ts)
        first = 1 if r0 == 0 else 0  # row 0 has no row before it
        if first < nb:
            drop = np.subtract(incr[first:nb], incr[1 + first : nb + 1], out=f[first:])
            best_drop = _least(best_drop, drop, r0 + first, ts)
        incr[0] = incr[nb]
    return best_second, best_gap, best_drop


def verify_concavity_chain(t_grid: int = 10_000) -> SuiteReport:
    """Audit the short-loop chain on dense grids.

    Checks: (a) the widened-collar arc is concave in the winding number
    (second differences at relative step 1e-2, tolerance 1e-12 on the sign);
    (b) the unit-step increment at winding alpha <= 1 dominates the increment
    at 1, and increments are nonincreasing in alpha throughout; (c) the
    asinh difference 2 asinh(2u) - 2 asinh(u) increases in u with infimum
    2 asinh 4 - 2 asinh 2 > 1.06 over u > 2; (d) the gap between the two
    sharp constants stays below 1.06.

    The 1000 x t_grid (alpha, t) grid of (a) and (b) is split into contiguous
    column slices of t (np.array_split), one per usable CPU (_workers()),
    each walked on a concurrent.futures thread pool of that size through
    every alpha row, 8 rows per numpy call into three buffers of its own.
    Each check's margin is 1e-12 plus a least value (check (a) negates the
    second difference).  Each slice keeps one running minimum of each check,
    replaced only when strictly below, so it holds the slice's first minimum
    in row-major order.  The slices' minima are merged on (value, row), a tie
    going to the leftmost slice.  So each margin and each witness, the first
    minimum of the grid in row-major order, do not depend on the slices.

    A non-finite cell fails its check: the margin is 0.0, the witness is the
    first such cell in row-major order, and a note names it.
    """
    if t_grid < 100:
        raise ValueError(f"t_grid must be >= 100, got {t_grid}")
    rep = SuiteReport(
        "concavity-chain",
        config={"t_grid": t_grid, "alpha_grid": 1000, "t_range": [1e-4, CASE_SPLIT / 2.0], "alpha_range": [1e-3, 6.0]},
    )
    ts = np.geomspace(1e-4, CASE_SPLIT / 2.0, t_grid)
    alphas = np.geomspace(1e-3, 6.0, 1000)

    # Factors of t alone, once for the whole grid.
    coshw1 = _coshw1(ts)
    ref = 2.0 * _arc(2.0, ts, coshw1) - 2.0 * _arc(1.0, ts, coshw1)

    n = min(_workers(), t_grid)
    with ThreadPoolExecutor(n) as pool:
        outs = list(pool.map(_concavity_slice, [alphas] * n, *(np.array_split(x, n) for x in (ts, coshw1, ref))))

    # of equal keys min returns the first: the earlier row, then the leftmost slice
    for k, cid in enumerate(("arc-concave-in-winding", "unit-increment-dominates-below-1", "increments-nonincreasing-in-winding")):
        value, row, t = min((out[k] for out in outs), key=lambda b: b[:2])
        pt = {"alpha": float(alphas[row]), "t": t}
        if math.isinf(value):  # a non-finite cell: no headroom to measure
            rep.add(cid, 0.0, pt)
            rep.notes.append(f"{cid}: non-finite value at alpha={pt['alpha']!r}, t={t!r}")
        else:
            rep.add(cid, 1e-12 + value, pt if k < 2 else None)  # a pass of (c) names no point

    us = 2.0 * np.cosh(0.5 * np.geomspace(1e-4, 5.0, t_grid)) ** 2
    g = 2.0 * np.arcsinh(2.0 * us) - 2.0 * np.arcsinh(us)
    inf_val = 2.0 * math.asinh(4.0) - 2.0 * math.asinh(2.0)
    dg = np.diff(g[np.argsort(us)])
    rep.add("asinh-difference-increasing-in-u", np.min(dg))
    rep.add("asinh-difference-infimum", np.min(g) - inf_val + 1e-12, {"u_min": float(np.min(us))})
    rep.add("infimum-above-threshold", inf_val - CASE_SPLIT)

    tab = constants()
    rep.add("gap-below-threshold", CASE_SPLIT - tab.gap)

    return rep


def verify_case1_chain(t_grid: int = 10_000) -> SuiteReport:
    """Audit the long-loop chain: the substitution T = (e^t+1)^2/(2 e^t),
    the two rewriting identities behind the assembled bound, and the global
    minimum sitting above the sharp constant."""
    if t_grid < 100:
        raise ValueError(f"t_grid must be >= 100, got {t_grid}")
    rep = SuiteReport("long-loop-chain", config={"t_grid": t_grid, "t_range": [1e-4, 5.0]})
    ts = np.geomspace(1e-4, 5.0, t_grid)
    T, Tm2 = _case_split_T(ts)

    rep.add("T-exceeds-2", np.min(Tm2))
    rep.add("T-limit-at-short-core", 1e-9 - _case_split_T(1e-9)[1], {"t": 1e-9})

    # crossing term: 2*log((e^t+1)/(e^t-1)) rewritten as log(T/(T-2))
    lhs_b = 2.0 * np.log1p(2.0 / np.expm1(ts))
    rhs_b = np.log(T) - np.log(Tm2)
    rep.add("crossing-term-rewrite", 1e-10 - np.max(np.abs(lhs_b - rhs_b)), {"t": float(ts[int(np.argmax(np.abs(lhs_b - rhs_b)))])})

    # arc term: 2*asinh(sinh t * cosh(w1(2t))) rewritten as 2*log(T + sqrt(T^2+1))
    lhs_c = 2.0 * _arc(1.0, ts, _coshw1(ts))
    rhs_c = 2.0 * np.log(T + np.sqrt(T * T + 1.0))
    rep.add("arc-term-rewrite", 1e-9 - np.max(np.abs(lhs_c - rhs_c)), {"t": float(ts[int(np.argmax(np.abs(lhs_c - rhs_c)))])})

    total = lhs_b + lhs_c
    bracket = find_bound_minimum()
    h_min = length_bound(bracket.root)
    m2 = sharp_bound_k2()
    rep.add("assembled-bound-min-vs-root", np.min(total) - h_min + 1e-9)
    rep.add("assembled-bound-min-vs-sharp-constant", np.min(total) - m2)
    rep.notes.append(
        "crossing term 2*log((e^t+1)/(e^t-1)) is twice the collar half-width at "
        "core length 2t; despite one source line typeset like a winding symbol, "
        "it is a width, and the surrounding algebra is checked on that reading"
    )
    return rep


SEED, PANTS_SAMPLES, COLLAR_SAMPLES = 20260809, 200, 100  # run_verify_suite's random samples


def run_verify_suite() -> SuiteReport:
    """Full audit: constants, bound minimum, both chains, the closed-form /
    holonomy equivalence on random pants, and both winding-arc oracles.  Each
    chain's check ids and notes are prefixed with its name."""
    from . import pants as pants_mod
    from . import winding as winding_mod

    rep = SuiteReport("verify", config={"seed": SEED, "pants_samples": PANTS_SAMPLES, "collar_samples": COLLAR_SAMPLES})
    tab = constants()
    rep.add("two-crossing-bound-value", 1e-6 - abs(tab.bound_two_crossings - 2.0 * math.acosh(5.0)))
    rep.add("gap-below-threshold", CASE_SPLIT - tab.gap)
    rep.add("corkscrew-1-matches-one-crossing-bound", 1e-12 - abs(corkscrew_length(1) - tab.bound_one_crossing))
    rep.add("corkscrew-2-matches-two-crossing-bound", 1e-12 - abs(corkscrew_length(2) - tab.bound_two_crossings))

    rep.add("deriv-negative-at-3", -length_bound_deriv(3.0))
    rep.add("deriv-positive-at-25-8", length_bound_deriv(25.0 / 8.0))
    bracket = find_bound_minimum()
    rep.add("minimum-in-bracket", min(bracket.root - 3.0, 25.0 / 8.0 - bracket.root), {"root": bracket.root})
    h0 = length_bound(bracket.root)
    inter = math.log(25.0 / 9.0) + 2.0 * math.log(3.0 + math.sqrt(10.0))
    rep.add("minimum-above-intermediate", h0 - inter, {"value": h0})
    rep.add("minimum-above-sharp-constant", h0 - tab.bound_two_crossings)

    for prefix, sub in (("short-loop", verify_concavity_chain()), ("long-loop", verify_case1_chain())):
        rep.checks.extend(CheckResult(f"{prefix}/{c.id}", c.passed, c.margin, c.witness) for c in sub.checks)
        rep.notes.extend(f"{prefix}/{note}" for note in sub.notes)

    rng = np.random.default_rng(SEED)
    worst = 0.0
    worst_at = None
    for _ in range(PANTS_SAMPLES):
        ls = rng.uniform(0.0, 4.0, size=3)
        ls[rng.random(3) < 0.25] = 0.0  # exercise the cusp limit explicitly
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        P = pants_mod.PantsBoundary(*ls)
        C = pants_mod.CurveClass(m, n)
        dev = abs(pants_mod.gamma_mn_length(P, C) - pants_mod.trace_length_oracle(P, C))
        if dev > worst:
            worst, worst_at = dev, {"l": [float(v) for v in ls], "m": m, "n": n}
    rep.add("pants-formula-vs-holonomy", 1e-9 - worst, worst_at)

    dev = max(winding_mod.verify_cusp_lemma_geometrically(w) for w in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0))
    rep.add("cusp-arc-vs-distance-oracle", 1e-12 - dev)

    worst = 0.0
    for _ in range(COLLAR_SAMPLES):
        W = float(rng.uniform(0.05, 4.0))
        core = float(rng.uniform(0.05, 4.0))
        width = float(rng.uniform(0.05, 3.0))
        got = winding_mod.collar_arc_length(W, core, width)
        oracle = winding_mod.saccheri_top_length(W, core, width)
        worst = max(worst, abs(got - oracle))
    rep.add("collar-arc-vs-quadrilateral-oracle", 1e-9 - worst)

    scan = collar.width_scan()
    rep.add("gap-identity", 1e-12 - scan["gap_identity_max_abs_dev"])
    rep.add("wide-width-exceeds-width", scan["w1_minus_w_min"])
    rep.add("wide-width-below-double-width-short-cores", scan["twow_minus_w1_min_short"])
    return rep
