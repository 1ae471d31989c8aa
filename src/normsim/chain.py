"""Exact Markov-chain analysis of the community reputation census.

For small communities the census (how many users hold each reputation)
evolves as a finite Markov chain: every period each user plays its best
response against the current census and its reputation either advances or
resets.  This module enumerates the census space as one integer array whose
row for a census is its lexicographic rank, builds the transition matrix
under best-response play, computes stationary and limiting distributions
along a ladder of shrinking error rates, and classifies the absorbing
censuses both analytically and numerically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bestresponse import POLICY_TIE_ATOL, solve_policy_batch
from .design import absorbing_bounds
from .norms import ConfigError, SocialNorm
from .payoff import opponent_of

DEFAULT_SPACE_CAP = 15_000  # two dense float64 kernels of this size take 3.6 GB
DEFAULT_EPS_LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
ROW_SUM_TOL = 1e-12
# GTH back-substitution starts from x[0] = 1, and at tiny epsilon the weights
# can span more than the float range above it; past this the weights so far
# are rescaled so that x[k] = 1, and the smallest underflow to zero instead of
# the largest overflowing.
_BACKSUB_RESCALE = 1e200


@dataclass(frozen=True)
class ConfigSpace:
    """All reputation censuses of N users over reputations 0..L.

    ``counts`` is a read-only (n, L+1) int64 array with one census per row,
    in lexicographic order, so a census's row is its lexicographic rank;
    ``rank_offsets`` is the ``_rank_offsets`` table that ``_census_rank``
    computes that rank from.  N and L determine both arrays, so equality
    and hashing look at N and L alone.
    """

    N: int
    L: int
    counts: np.ndarray = field(compare=False, repr=False)
    rank_offsets: np.ndarray = field(compare=False, repr=False)

    def __len__(self) -> int:
        return self.counts.shape[0]

    def index_of(self, counts) -> int:
        """Row of one census: L+1 nonnegative integers summing to N."""
        c = np.asarray(counts, dtype=np.int64)
        if c.shape != (self.L + 1,) or c.min() < 0 or c.sum() != self.N:
            raise ValueError(
                f"not a census of N={self.N} users over reputations 0..{self.L}: "
                f"{c.tolist()}"
            )
        return int(_census_rank(self.rank_offsets, c[:, None])[0])

    @property
    def mu0(self) -> int:
        """Index of the all-at-reputation-0 census, the last in the order."""
        return len(self) - 1

    @property
    def muN(self) -> int:
        """Index of the all-at-top-reputation census, the first in the order."""
        return 0


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic one-period transition kernel over a ConfigSpace."""

    epsilon: float
    entries: np.ndarray
    policies: np.ndarray = field(compare=False, repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        P = np.asarray(self.entries, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"transition matrix must be square, got {P.shape}")
        gap = np.abs(P.sum(axis=1) - 1.0).max()
        if not gap <= ROW_SUM_TOL:  # NaN fails too
            raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, off by {gap:.3e}")
        if not P.min() >= 0:
            raise ValueError("transition probabilities must be nonnegative")
        object.__setattr__(self, "entries", P)


@dataclass(frozen=True)
class StationaryDist:
    """Probability vector over a ConfigSpace fixed by the transition kernel."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not np.isfinite(w).all():
            raise ValueError("stationary weights must be finite")
        if w.min() < -1e-12:
            raise ValueError("stationary weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"stationary weights must sum to 1, got {w.sum()}")
        object.__setattr__(self, "weights", np.clip(w, 0.0, None) / w.sum())


def enumerate_configs(N: int, L: int) -> ConfigSpace:
    """Enumerate every census of N users over reputations 0..L.

    The space has binomial(N+L, L) members; sizes beyond
    ``DEFAULT_SPACE_CAP`` are refused because two dense matrices of that size
    coexist downstream (a kernel and its GTH copy).  The cap admits N <= 42
    at L = 3.  The censuses come
    from stars and bars: each choice of L bar positions among N+L slots,
    taken in lexicographic order, leaves the gaps between bars as the counts,
    which are then in lexicographic order too.
    """
    size = math.comb(N + L, L)
    if size > DEFAULT_SPACE_CAP:
        raise ConfigError(
            f"census space has {size} members for N={N}, L={L}, above the cap "
            f"{DEFAULT_SPACE_CAP}; reduce N (or L) for exact chain analysis"
        )
    bars = np.array(list(itertools.combinations(range(N + L), L)), dtype=np.int64)
    counts = np.diff(bars, axis=1, prepend=-1, append=N + L) - 1
    off = _rank_offsets(N, L)
    counts.flags.writeable = off.flags.writeable = False
    return ConfigSpace(N=N, L=L, counts=counts, rank_offsets=off)


def _batch_policies(
    norm: SocialNorm, space: ConfigSpace, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Best-response thresholds and their reset probabilities for every
    (census, occupied reputation) pair.

    Each user is solved against its census with itself removed.  Returns two
    arrays of shape (|space|, L+1): the threshold played and the probability
    that playing it resets the user.  Unoccupied entries hold the socially
    prescribed threshold and a reset probability of 0; they never matter for
    transitions.  All pairs are solved in one batched policy-iteration call.
    """
    L = norm.params.L
    counts = space.counts
    cfg, rep = np.nonzero(counts)
    pair = np.arange(cfg.size)
    solved, _, played_resets, _, _ = solve_policy_batch(
        norm, opponent_of(counts[cfg], rep), np.full(cfg.size, norm.params.delta),
        epsilon=eps,
    )
    policies = np.tile(norm.compliant, (len(space), 1))
    policies[cfg, rep] = solved[pair, rep]
    resets = np.zeros((len(space), L + 1))
    resets[cfg, rep] = played_resets[pair, rep]
    return policies, resets


def _rank_offsets(N: int, L: int) -> np.ndarray:
    """Lexicographic-rank table of the census space.

    ``off[j, u, c]`` counts the censuses that agree with a census up to
    bucket j-1, leave u users for buckets j..L and put fewer than c of them in
    bucket j.  Summed over j < L, these terms give a census's index in
    ``enumerate_configs`` (see ``_census_rank``).
    """
    off = np.zeros((L, N + 1, N + 1), dtype=np.int64)
    for j in range(L):
        parts = L - j  # buckets j+1..L, which share the users bucket j leaves
        for u in range(N + 1):
            for c in range(u):
                off[j, u, c + 1] = off[j, u, c] + math.comb(u - c + parts - 1, parts - 1)
    return off


def _census_rank(off: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Index in ``enumerate_configs`` of each census, one per column of the
    (L+1, K) integer array ``counts``, from the table of ``_rank_offsets``."""
    rank, left = np.zeros(counts.shape[1], dtype=np.int64), off.shape[1] - 1
    for j in range(off.shape[0]):
        rank += off[j, left, counts[j]]
        left = left - counts[j]
    return rank


def build_transition_matrix(
    norm: SocialNorm, space: ConfigSpace, *, epsilon: float | None = None
) -> TransitionMatrix:
    """One-period census kernel under best-response play.

    Given the census, each user independently resets to reputation 0 with its
    action's punishment probability and otherwise climbs one step (capped at
    the top).  All (census, reset-count vector k) pairs are enumerated at
    once, one bucket at a time with the last bucket fastest; a pair's
    probability is the product of its buckets' binomial pmf entries in
    reputation order, each distinct pmf computed once.  k sends sum(k) users
    to 0 and bucket r's other n_r - k_r one step up (L-1 and L merge at L);
    each destination's column is its lexicographic rank, and one
    ``np.bincount`` per chunk of about 2**15 pairs fills the rows.  Pairs of
    probability 0 add nothing, so every entry is the sum the per-census
    convolution gives, in the same order.
    """
    p = norm.params
    if space.N != p.N or space.L != p.L:
        raise ValueError(
            f"space built for N={space.N}, L={space.L}; norm has N={p.N}, L={p.L}"
        )
    eps = p.epsilon if epsilon is None else epsilon
    if not 0 <= eps < 0.5:
        raise ConfigError(f"error rate must lie in [0, 0.5), got {eps}")
    L, m = p.L, len(space)
    policies, resets = _batch_policies(norm, space, eps)
    counts = space.counts
    nq, which = np.unique(
        np.stack([counts.ravel(), resets.ravel()], axis=1), axis=0, return_inverse=True
    )
    n_q = nq[:, 0].astype(np.int64)
    # Python float powers: numpy's vectorised power may differ in the last bit
    pmfs = np.array([math.comb(n, k) * q**k * (1.0 - q) ** (n - k)
                     for n, q in zip(n_q.tolist(), nq[:, 1].tolist())
                     for k in range(n + 1)])
    base = (np.cumsum(n_q + 1) - (n_q + 1))[which].reshape(m, L + 1)  # pmf starts
    cum = np.cumsum(np.prod(counts + 1, axis=1))
    bounds = np.union1d(np.searchsorted(cum, np.arange(2**15, cum[-1], 2**15)), [0, m])
    P = np.zeros((m, m))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        row, prob = np.arange(lo, hi), np.ones(hi - lo)
        dest = np.zeros((L + 1, hi - lo), dtype=np.int64)
        for rep in range(L + 1):
            n = counts[row, rep]
            width = n + 1  # reset counts 0..n
            first = np.cumsum(width) - width
            k = np.arange(first[-1] + width[-1]) - np.repeat(first, width)
            at = np.repeat(base[row, rep], width) + k
            row, n = np.repeat(row, width), np.repeat(n, width)
            prob = np.repeat(prob, width) * pmfs[at]
            dest = np.repeat(dest, width, axis=1)
            dest[0] += k
            dest[norm.up[rep]] += n - k
        col = _census_rank(space.rank_offsets, dest)
        P[lo:hi] = np.bincount(
            (row - lo) * m + col, weights=prob, minlength=(hi - lo) * m
        ).reshape(hi - lo, m)
    return TransitionMatrix(epsilon=eps, entries=P, policies=policies)


def stationary_distribution(P: TransitionMatrix) -> StationaryDist:
    """Unique stationary distribution of an irreducible kernel.

    Uses GTH state reduction (Grassmann, Taksar and Heyman 1985).  States are
    eliminated from the last to the first: eliminating state k folds its
    transitions into the chain censored on states 0..k-1.  The probability of
    leaving k for a lower state is taken as the sum of those entries, never as
    one minus the diagonal, so no step subtracts and every weight keeps its
    relative accuracy at the near-reducible error rates where the kernel's
    off-diagonal mass is of order epsilon.  A back-substitution then recovers
    the weights.  The cost is one O(n^3) pass, whatever epsilon is.
    Eliminations run in panels of 32 states from the top, as in blocked LU.
    Each step updates only the panel's 32x32 diagonal block; the sums of its
    rows' entries left of the panel are tracked as a vector, which is all a
    later pivot reads of them.  The same steps, applied to two identity
    matrices, record the panel's row and column operations as transforms T
    and S, and after the panel three matrix products apply them: T to the
    row strip left of the panel, S to the column strip above it, and then
    the trailing update of the states still to be eliminated.  Every
    transform and update is nonnegative, so the solve stays subtraction-free;
    only the summation order differs from the one-state-at-a-time loop.

    Raises ``ValueError`` for a zero-error kernel and ``RuntimeError`` when a
    state cannot reach any lower state in its censored chain, which means the
    kernel is not irreducible.
    """
    if P.epsilon <= 0:
        raise ValueError(
            "stationary distribution requires epsilon > 0 (irreducible kernel)"
        )
    A = P.entries.copy()
    n = A.shape[0]
    for hi in range(n, 1, -32):
        lo = max(hi - 32, 1)
        b = hi - lo
        # C stacks S, the panel's column transform, above its diagonal block;
        # R sets T, its row transform, beside the row strip's sums.  Each
        # step's column operations act on C[:b + k], its row operations on R[:k].
        C = np.vstack([np.eye(b), A[lo:hi, lo:hi]])
        R = np.hstack([np.eye(b), A[lo:hi, :lo].sum(axis=1, keepdims=True)])
        for k in range(b - 1, -1, -1):
            s = C[b + k, :k].sum() + R[k, b]
            if not s > 0:
                raise RuntimeError(
                    f"state {lo + k} reaches no lower state; "
                    "the kernel is not irreducible"
                )
            C[:b + k, k] /= s
            C[:b + k, :k] += np.outer(C[:b + k, k], C[b + k, :k])
            R[:k] += np.outer(C[b:b + k, k], R[k])
        A[lo:hi, lo:hi] = C[b:]
        A[lo:hi, :lo] = R[:, :b] @ A[lo:hi, :lo]
        A[:lo, lo:hi] = A[:lo, lo:hi] @ C[:b]
        A[:lo, :lo] += A[:lo, lo:hi] @ A[lo:hi, :lo]
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
        if x[k] > _BACKSUB_RESCALE:
            x[:k + 1] /= x[k]
    w = x / x.sum()
    residual = np.abs(w @ P.entries - w).max()
    if residual > 1e-10:
        raise RuntimeError(f"fixed-point residual {residual:.3e} exceeds 1e-10")
    return StationaryDist(weights=w)


def stationary_linear(P: TransitionMatrix) -> StationaryDist:
    """Dense linear-solve cross-check of the stationary distribution.

    Holds to 1e-10 only at eps >= 1e-2 and N <= 6.  At smaller eps its diagonal
    P[k, k] - 1 cancels, and about one random draw in six then misses GTH by
    more than 1e-10 or gets negative weights.
    """
    n = P.entries.shape[0]
    if n > 2000:
        raise ValueError("linear solve cross-check is limited to 2000 states")
    A = P.entries.T - np.eye(n)
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    w = np.linalg.solve(A, rhs)
    return StationaryDist(weights=w)


@dataclass(frozen=True)
class LimitingResult:
    """Stationary distributions along an error ladder plus the stable support."""

    eps_ladder: tuple[float, ...]
    table: dict[float, StationaryDist]
    support: tuple[int, ...]  # config indices stable across the last two rungs


def limiting_distribution(
    norm: SocialNorm,
    space: ConfigSpace,
    eps_ladder=DEFAULT_EPS_LADDER,
) -> LimitingResult:
    """Stationary distributions down an error ladder and the stable support.

    A census belongs to the long-run support if its weight exceeds
    max(100 * eps, 1e-3) at each of the two smallest ladder rungs; those are
    the censuses that retain occupancy as errors vanish.
    """
    ladder = tuple(float(e) for e in eps_ladder)
    if not ladder or any(e <= 0 for e in ladder):
        raise ConfigError("error ladder must be positive")
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("error ladder must be strictly decreasing")
    table = {}
    for eps in ladder:
        P = build_transition_matrix(norm, space, epsilon=eps)
        table[eps] = stationary_distribution(P)

    def support_at(eps):
        cut = max(100.0 * eps, 1e-3)
        return {int(i) for i in np.flatnonzero(table[eps].weights > cut)}

    stable = support_at(ladder[-1])
    if len(ladder) >= 2:
        stable &= support_at(ladder[-2])
    return LimitingResult(eps_ladder=ladder, table=table, support=tuple(sorted(stable)))


@dataclass(frozen=True)
class AbsorbingClassification:
    absorbing_indices: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]  # closed communicating classes at eps=0


def _analytic_absorbing_indices(norm: SocialNorm, space: ConfigSpace) -> set[int]:
    """Censuses that are absorbing under vanishing errors, by incentive analysis.

    Only censuses supported on the extreme reputations can be absorbing.  The
    all-0 census always is; the all-top census is iff delta*b > c.  A mixed
    census with nL users at the top holds iff (a) its bottom group prefers
    full defection to climbing, nL <= b_upper, and (b) its top group either
    prefers compliance, nL > b_lower, or is a single user, whose defection
    goes unpunished because no good client exists.  The bounds are
    ``design.absorbing_bounds``.  Every comparison treats a gap within
    ``POLICY_TIE_ATOL`` as a tie, and a tie goes to defection, as in the
    solvers.
    """
    p = norm.params
    N, L = p.N, p.L
    bounds = absorbing_bounds(norm)
    out = set()
    two_point = np.flatnonzero(~space.counts[:, 1:L].any(axis=1))
    for i, nL in zip(two_point.tolist(), space.counts[two_point, L].tolist()):
        if nL == 0:
            out.add(i)  # full defection sustains itself unconditionally
            continue
        if nL == N:
            if p.delta * p.b - p.c > POLICY_TIE_ATOL:
                out.add(i)
            continue
        top_stays = nL == 1 or nL - bounds.b_lower > POLICY_TIE_ATOL
        if top_stays and nL - bounds.b_upper <= POLICY_TIE_ATOL:
            out.add(i)
    return out


def _closed_classes(adj: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Closed communicating classes of the directed graph with boolean
    adjacency matrix ``adj``, each listed in increasing state order, the
    classes sorted.

    A strong component is closed when no edge leaves it: one pass over the
    nonzeros marks the components with an exit, and a stable sort on the
    component label groups the remaining states.  scipy is imported here, so
    that the simulation path never loads it.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adj = csr_matrix(adj)
    _, labels = connected_components(adj, directed=True, connection="strong")
    row, col = adj.nonzero()
    leaky = np.isin(labels, labels[row[labels[row] != labels[col]]])
    closed = np.flatnonzero(~leaky)[np.argsort(labels[~leaky], kind="stable")]
    classes = np.split(closed, np.flatnonzero(np.diff(labels[closed])) + 1)
    return tuple(sorted(tuple(c.tolist()) for c in classes))


def classify_absorbing(
    norm: SocialNorm, space: ConfigSpace
) -> AbsorbingClassification:
    """Absorbing censuses, verified analytically and against the zero-error kernel.

    The analytic incentive classification and the numeric self-transition
    test must agree; a mismatch raises with the offending censuses.  Also
    returns the closed communicating classes of the zero-error kernel.
    """
    analytic = _analytic_absorbing_indices(norm, space)
    P0 = build_transition_matrix(norm, space, epsilon=0.0)
    numeric = {int(i) for i in np.flatnonzero(np.diag(P0.entries) >= 1.0 - 1e-12)}
    if analytic != numeric:
        only_a = sorted(tuple(space.counts[i].tolist()) for i in analytic - numeric)
        only_n = sorted(tuple(space.counts[i].tolist()) for i in numeric - analytic)
        raise RuntimeError(
            "absorbing classification mismatch: "
            f"incentive-only {only_a}, kernel-only {only_n}"
        )
    return AbsorbingClassification(
        absorbing_indices=tuple(sorted(numeric)),
        classes=_closed_classes(P0.entries > 1e-15),
    )
