"""Trial generation and scoring for randomized approximation.

Logic sampling draws full assignments from the factored joint by walking
nodes in declaration order, parents first. Conditioned trials come from
either rejection (exact, cost inverse in the probability of the condition
nodes not clamped) or Gibbs sweeps (approximate, fixed cost per trial).
When every kept node's Markov blanket is bound, only the last sweep is
drawn, and it updates only the kept nodes; otherwise every sweep updates
every unbound node.
Estimators feed trial categories into a Dirichlet posterior and stop at
the first checkpoint (the powers of two and the worst-case bound) that
the stopping rule certifies, on every category for a distribution and
on the consistent category for a fraction. Several fractions can read one
conditioned stream, each certified on its own. Every stream charges its
raw rows to its run's account, and a batch that would take the account
past its row budget is refused, so every estimate ends.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Sequence

import numpy as np

from .dependence import _phi_floor
from .errors import (
    NetworkTooLargeError,
    NonPositivePhiMinError,
    RowBudgetExceededError,
)
from .network import Assignment, BeliefNetwork, check_disjoint
from .stopping import (
    DirichletPosterior,
    should_stop,
    worst_case_sample_bound,
)

DEFAULT_ROW_BUDGET = 2 ** 32
_GENERATOR_KINDS = ("rejection", "gibbs")

_MASK64 = (1 << 64) - 1
# Most rows one take returns, which bounds a take's memory; at 2^16 two
# mixed-small passes took 8x to 34x the minor page faults of 2^18.
_MAX_CHUNK = 1 << 18
# A stream's first batch draws this many raw rows or chains, and no
# batch draws more than the second.
_FIRST_RAW_BATCH = 1 << 8
_MAX_RAW_BATCH = 1 << 16
# A forward batch of at least this many raw rows draws each node from one
# random byte a row (``_byte_draw``); a smaller one draws a double a row.
# The byte rule pays four more numpy calls a node, and a tie word draw in
# most nodes of a small batch. Timed over the batches that one pass of
# perfbench's mixed-small and rare-evidence workloads makes, on a 2-vCPU
# Xeon, bytes took 1.3-1.6x the time of doubles at 256 rows, 1.08-1.21x
# at 2,048, 0.89-0.95x at 4,096 and 0.29-0.49x at 65,536.
_BYTE_BATCH = 1 << 12
# An entry p of a CPT is drawn by the byte rule as T = ceil(p * 2^53),
# split into its top byte T >> _LOW_BITS and the rest.
_LOW_BITS = 45
# Most doubles one Gibbs draw returns (8 MB).
_MAX_DRAW = 1 << 20
# Widest unbound Markov blanket a Gibbs table spans (2^16 entries); a
# wider blanket is evaluated on the rows.
_TABLE_BITS = 16
_MAX_CATEGORY_NODES = 20


def mix_seed(seed: int, stream: int) -> int:
    """Derive a decorrelated 64-bit seed for a numbered substream."""
    x = (seed + (stream + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class RandomSource:
    """Deterministic random stream identified by a 64-bit seed.

    Backed by numpy's PCG64 generator, so equal seeds give bit-identical
    sample sequences on every platform. Every draw reads whole 64-bit
    outputs w: a double is (w >> 11) * 2^-53, and ``bytes`` reads each
    w's eight bytes little-endian, whatever the platform's byte order.
    A forward batch of _BYTE_BATCH rows or more reads one byte per node
    and row, plus a word on each tie (one in 256), where a smaller batch
    reads a double: the byte and tie word settle the double's comparison
    u < p exactly (``_byte_draw``), so both rules have one law. The bytes
    read an eighth of the stream, at the cost of more numpy calls a
    node, which only large batches recoup. Consuming draws advances
    internal state; ``derive`` ignores that state and mixes the original
    seed with a stream number, so substream layouts are reproducible
    regardless of how much the parent stream has been used. The
    generator is built at the first draw or skip, so a source that only
    derives builds none.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int) -> None:
        seed = int(seed)
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 unsigned bits: {seed!r}")
        self.seed = seed
        self._gen = None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(self.seed))
        return self._gen

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"

    def derive(self, stream: int) -> "RandomSource":
        """Independent source for substream ``stream`` of this seed."""
        if stream < 0:
            raise ValueError(f"stream must be nonnegative, got {stream!r}")
        return RandomSource(mix_seed(self.seed, stream))

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` doubles drawn uniformly from [0, 1)."""
        return self._generator().random(count)

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` 64-bit outputs, as uint64."""
        return self._generator().bit_generator.random_raw(count)

    def bytes(self, count: int) -> np.ndarray:
        """``count`` random bytes, eight from each of the next outputs.

        The bytes of the last output that ``count`` leaves over are
        dropped, so the stream moves on by ceil(count / 8) outputs.
        """
        words = self._generator().bit_generator.random_raw(-(-count // 8))
        return words.astype("<u8", copy=False).view(np.uint8)[:count]

    def skip(self, count: int) -> None:
        """Advance past ``count`` doubles without drawing them."""
        # A PCG64 double uses one 64-bit output.
        self._generator().bit_generator.advance(count)


@dataclass(frozen=True)
class TrialGeneratorKind:
    """Which conditioned-trial generator to run.

    ``burn_in_sweeps`` is the gibbs kind's sweep count per trial, at
    least 1; the rejection kind takes None.
    """

    kind: str
    burn_in_sweeps: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "rejection" and self.burn_in_sweeps is not None:
            raise ValueError("rejection takes no burn-in")
        if self.kind == "gibbs" and (self.burn_in_sweeps is None
                                     or self.burn_in_sweeps < 1):
            raise ValueError("gibbs needs burn_in_sweeps (--burn-in-sweeps) "
                             f"of at least 1, got {self.burn_in_sweeps!r}")

    @classmethod
    def rejection(cls) -> "TrialGeneratorKind":
        return cls("rejection")

    @classmethod
    def gibbs(cls, burn_in_sweeps: int) -> "TrialGeneratorKind":
        return cls("gibbs", burn_in_sweeps)


@dataclass(frozen=True)
class RasEstimate:
    """A certified fraction estimate with its accounting."""

    value: float
    epsilon: float
    delta: float
    trials: int
    consistent: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"value outside [0, 1]: {self.value!r}")
        if not 0 <= self.consistent <= self.trials:
            raise ValueError(
                f"consistent count {self.consistent} outside 0..{self.trials}")


@lru_cache(maxsize=64)
def _plan(net: BeliefNetwork) -> tuple[tuple, ...]:
    """Per node in declaration order: column, parent columns, CPT rows.

    Each step ends with the rows' byte-rule thresholds: for each entry
    p, T = ceil(p * 2^53) split into its top byte T >> 45 (uint8, since
    p < 1) and the rest T mod 2^45 (uint64). p * 2^53 is exact in
    binary floating point, so T is too.
    """
    steps = []
    for col, cpt in enumerate(net.cpts):
        cols = tuple(net.index(p) for p in cpt.parents)
        rows = np.asarray(cpt.rows, dtype=np.float64)
        t = np.ceil(np.ldexp(rows, 53)).astype(np.uint64)
        hi = (t >> np.uint64(_LOW_BITS)).astype(np.uint8)
        lo = t & np.uint64((1 << _LOW_BITS) - 1)
        steps.append((col, cols, rows, hi, lo))
    return tuple(steps)


def _index(column, cols):
    """Values of ``cols`` read as a binary number, first most significant.

    ``column(c)`` gives column c's values; the result is 0 for no columns.
    It is intp, the index type numpy gathers with without a cast.
    """
    if not cols:
        return 0
    idx = column(cols[0]).astype(np.intp)
    for col in cols[1:]:
        idx <<= 1
        idx |= column(col)
    return idx


@lru_cache(maxsize=256)
def _schedule(net: BeliefNetwork, keep: tuple[int, ...] | None,
              condition: tuple[tuple[int, int], ...],
              clamp: tuple[tuple[int, int], ...]) -> tuple[tuple, ...]:
    """The walk of a forward pass that computes only what its caller reads.

    The nodes computed are the ancestral closure of ``keep`` and the
    condition's nodes; a clamped node cuts the closure at itself. Clamped
    nodes come first. Then each condition node, in declaration order,
    comes right after its ancestors not yet walked, so that rows are
    rejected after as few draws as possible; the other nodes follow in
    declaration order. Each node has a slot, its place in the walk.

    Returns ``(fixes, draws, out)``: ``fixes`` holds (col, value) for the
    clamped slots, ``draws`` holds (col, parent_slots, tables, want) for
    the rest, with ``tables`` the node's CPT rows and byte thresholds
    (rows, hi, lo) from _plan and ``want`` its condition value (-1 for
    none), and ``out`` the slots of the columns returned.
    """
    plan = _plan(net)
    fixed = dict(clamp)
    want = dict(condition)
    kept = range(net.n) if keep is None else keep
    order: dict[int, None] = {}  # an ordered set
    for group in (*([c] for c in sorted(want)), kept):
        needed = set(group)
        for col, pcols, *_ in reversed(plan):
            if col in needed and col not in fixed:
                needed.update(pcols)
        order.update(dict.fromkeys(sorted(needed - order.keys())))
    walk = sorted(order, key=lambda c: c not in fixed)
    slot = {c: i for i, c in enumerate(walk)}
    fixes = tuple((c, fixed[c]) for c in walk if c in fixed)
    draws = tuple((c, tuple(slot[p] for p in plan[c][1]), plan[c][2:],
                   want.get(c, -1)) for c in walk[len(fixes):])
    return fixes, draws, tuple(slot[c] for c in kept)


def _byte_draw(rng: RandomSource, idx, hi: np.ndarray, lo: np.ndarray,
               out: np.ndarray) -> None:
    """Set each of ``out``'s rows to 1 with probability T / 2^53.

    Row r reads the CPT entry of index ``idx[r]`` (``idx`` is 0 for a
    node without parents), with T = hi * 2^45 + lo as in _plan. Each row
    takes one random byte c: 1 if c < hi, 0 if c > hi. On a tie (c = hi,
    one time in 256) the row takes one more output w, the tied rows in
    order, and is 1 exactly when w >> 19 < lo. So Pr[1] = hi / 2^8 +
    2^-8 * lo / 2^45 = T / 2^53, which is Pr[u < p] for a double u = k *
    2^-53 with k uniform on 0 .. 2^53 - 1, since k < p * 2^53 exactly
    when k < T: the byte rule keeps the law of a double a row.
    """
    c = rng.bytes(len(out))
    t = hi[idx]
    np.less(c, t, out=out)
    tie = np.flatnonzero(c == t)
    if len(tie):
        at = idx if isinstance(idx, int) else idx[tie]
        top = rng.words(len(tie)) >> np.uint64(64 - _LOW_BITS)
        out[tie] = top < lo[at]


def _sample_batch(net: BeliefNetwork, rng: RandomSource, count: int,
                  keep: tuple[int, ...] | None = None,
                  condition: tuple[tuple[int, int], ...] = (),
                  clamp: tuple[tuple[int, int], ...] = ()) -> np.ndarray:
    """Forward-sample ``count`` rows, computing only what the caller reads.

    ``keep`` lists the columns returned (None: all, in declaration order);
    ``condition`` and ``clamp`` hold (column, value) pairs. The nodes are
    drawn in the order of ``_schedule``, each for the rows still alive:
    after each condition node is drawn, the rows that disagree with it
    are dropped, so later nodes are drawn for survivors only. In a batch
    of fewer than _BYTE_BATCH rows a node reads the next double u of the
    stream per live row and is 1 when u < p; in a larger one it reads one
    byte per live row, then its ties' words (``_byte_draw``). Both rules
    give 1 with probability exactly ceil(p * 2^53) / 2^53 and differ only
    in the stream they read. Small batches keep doubles because there
    the byte rule's extra numpy calls cost more than the doubles save.
    A batch takes its rule from ``count``, however few rows survive.
    Nodes outside the ancestral closure of ``keep`` and the condition
    draw nothing; clamped nodes take their value. The batch is held one
    contiguous row of values per node, in walk order, so dropping rows
    moves only the nodes already drawn.

    Returns the kept columns, one row each, of the forward rows that
    satisfy the condition.
    """
    fixes, draws, out = _schedule(net, keep, condition, clamp)
    first = len(fixes)
    batch = np.empty((first + len(draws), count), dtype=np.uint8)
    for i, (_, value) in enumerate(fixes):
        batch[i] = value
    by_byte = count >= _BYTE_BATCH
    m = count
    for i, (_, pslots, (rows, hi, lo), want) in enumerate(draws, first):
        if m == 0:
            break
        idx = _index(lambda s: batch[s, :m], pslots)
        drawn = batch[i, :m].view(bool)
        if by_byte:
            _byte_draw(rng, idx, hi, lo, drawn)
        else:
            np.less(rng.uniforms(m), rows[idx], out=drawn)
        if want >= 0:
            sel = np.flatnonzero(batch[i, :m] == want)
            if len(sel) < m:
                m = len(sel)
                batch[first:i + 1, :m] = batch[first:i + 1].take(sel, axis=1)
    return batch[list(out), :m]


def logic_sample_batch(net: BeliefNetwork, rng: RandomSource,
                       count: int) -> np.ndarray:
    """``count`` joint samples as a (count, n) array, declaration order."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count!r}")
    return np.ascontiguousarray(_sample_batch(net, rng, count).T)


def _pairs(net: BeliefNetwork,
           assignment: Assignment) -> tuple[tuple[int, int], ...]:
    return tuple((net.index(k), int(v)) for k, v in assignment.items())


class _RowAccount:
    """The raw rows a run has drawn, against the run's one row budget.

    Every stream of the run charges its batches here, so the budget
    bounds the run however many streams it reads.
    """

    __slots__ = ("budget", "drawn")

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.drawn = 0


class _Stream:
    """Trials of one estimate, buffered across the batches that make them.

    Rows are returned column-major, one row per ``keep`` column. A
    subclass's ``_next(m)`` makes the stream's next batch from ``m`` raw
    rows or chains. Each batch aims at the next power-of-two total of
    rows made, at least _FIRST_RAW_BATCH: it draws the rows still wanted,
    plus two standard deviations of their binomial count, over the
    acceptance seen so far, (made + 1) / (drawn + 1), and at most
    _MAX_RAW_BATCH raw rows. A batch's size depends only on the
    batches before it, so the stream returns the same rows however a
    count is split into takes. A stream that keeps every raw row (logic
    sampling, Gibbs, rejection on a clamped condition) ends a batch on
    each power-of-two checkpoint from _FIRST_RAW_BATCH on, and one that
    rejects ends a batch near it.

    Every raw row is made here, so the run's one work bound is kept here
    too: each batch is charged to ``account``, the run's _RowAccount,
    and a batch that would take the rows the run has drawn past its
    budget raises RowBudgetExceededError before it draws. A Gibbs chain
    counts as ``_sweeps`` rows.
    """

    _sweeps = 1

    def __init__(self, net: BeliefNetwork, condition: Assignment,
                 rng: RandomSource, account: _RowAccount,
                 keep: tuple[int, ...]) -> None:
        self._net = net
        self._condition = _pairs(net, condition)
        self._rng = rng
        self._account = account
        self._keep = keep
        self._rest = np.empty((len(keep), 0), dtype=np.uint8)
        self._made = 0
        self._drawn = 0

    def take(self, count: int) -> np.ndarray:
        """The stream's next ``count`` rows."""
        parts, have = [self._rest], self._rest.shape[1]
        while have < count:
            wanted = (max(1 << self._made.bit_length(), _FIRST_RAW_BATCH)
                      - self._made)
            rate = (self._made + 1) / (self._drawn + 1)
            spread = 2.0 * math.sqrt(wanted * (1.0 - rate))
            m = min(math.ceil((wanted + spread) / rate), _MAX_RAW_BATCH)
            account = self._account
            if account.drawn + m * self._sweeps > account.budget:
                raise RowBudgetExceededError(
                    f"next batch would pass the row budget of "
                    f"{account.budget} raw rows", cap=account.budget)
            account.drawn += m * self._sweeps
            self._drawn += m
            parts.append(self._next(m))
            self._made += parts[-1].shape[1]
            have += parts[-1].shape[1]
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        self._rest = rows[:, count:]
        return rows[:, :count]


class _RejectionStream(_Stream):
    """Accepted rows of repeated forward batches.

    A condition node whose parents are all clamped is clamped too: its
    factor is the same on every row, so the accepted rows keep their law,
    and only the other condition nodes are rejected on. With no condition
    left to reject on, no row is rejected (logic sampling, when the
    condition is empty).
    """

    def __init__(self, net: BeliefNetwork, condition: Assignment,
                 rng: RandomSource, account: _RowAccount,
                 keep: tuple[int, ...]) -> None:
        super().__init__(net, condition, rng, account, keep)
        rejected, clamped = dict(self._condition), {}
        for col, pcols, *_ in _plan(net):
            if col in rejected and all(p in clamped for p in pcols):
                clamped[col] = rejected.pop(col)
        self._rejected = tuple(rejected.items())
        self._clamped = tuple(clamped.items())

    def _next(self, m: int) -> np.ndarray:
        return _sample_batch(self._net, self._rng, m, self._keep,
                             self._rejected, self._clamped)


def _unbound_blanket(col: int, pcols: tuple[int, ...], kids: tuple,
                     clamped: dict[int, int]) -> tuple[int, ...]:
    """The Markov blanket of ``col`` without its clamped nodes.

    ``kids`` are the _plan steps of col's children. The relation is
    symmetric: b is in a's unbound blanket exactly when a is in b's.
    """
    blanket = (*pcols, *(c for ccol, cpcols, *_ in kids
                         for c in (ccol, *cpcols)))
    return tuple(dict.fromkeys(c for c in blanket
                               if c != col and c not in clamped))


def _blanket_update(col: int, pcols: tuple[int, ...], rows: np.ndarray,
                    kids: tuple, bits: tuple[int, ...],
                    clamped: dict[int, int]):
    """Pr[col = 1] given the other nodes, as a function of ``column``.

    ``column(c)`` gives column c's values, ``kids`` are the _plan steps
    of col's children and ``bits`` its unbound blanket. The evaluation
    reads the log-odds of col's CPT entry, then adds in each child's log
    factor ratio, indexing the child's tables with col read once as 1
    and once as 0. A sum of logs cannot underflow where the product of
    the factors would. When ``bits`` spans at most _TABLE_BITS nodes,
    the evaluation runs once on the grid of their states and the update
    looks the rows up in that table; otherwise it runs on the rows.
    """
    own = np.log(rows) - np.log1p(-rows)
    logs = [(ccol, cpcols, np.log(crows), np.log1p(-crows))
            for ccol, cpcols, crows, *_ in kids]

    def pr_one(column):
        def reading(value):
            return lambda c: value if c == col else column(c)
        odds = own[_index(column, pcols)]
        for ccol, cpcols, on, off in logs:
            one = _index(reading(np.uint8(1)), cpcols)
            zero = _index(reading(np.uint8(0)), cpcols)
            odds = odds + np.where(column(ccol) == 1, on[one] - on[zero],
                                   off[one] - off[zero])
        return np.exp(-np.logaddexp(0.0, -odds))

    if len(bits) > _TABLE_BITS:
        return pr_one
    size = 1 << len(bits)
    grid = np.indices((2,) * len(bits), dtype=np.uint8).reshape(-1, size)
    value = dict(zip(bits, grid))
    value.update((c, np.uint8(v)) for c, v in clamped.items())
    table = np.full(size, pr_one(value.__getitem__))
    return lambda column: table[_index(column, bits)]


class _GibbsStream(_Stream):
    """Independent Gibbs chains, one per row.

    Each chain starts from a clamped forward row; a sweep then redraws
    unbound nodes in declaration order from their blanket updates, each
    from its own block of the sweep's k·m uniforms (k unbound nodes, m
    chains). A kept node whose unbound blanket is empty reads only
    clamped values, so its update is a constant Bernoulli. When every
    kept node is one, the stream skips the earlier sweeps' uniforms and
    the last sweep updates only the kept nodes; otherwise every sweep
    updates every unbound node. Every uniform keeps its place, so the
    kept columns are those of sweeping every node.
    """

    def __init__(self, net: BeliefNetwork, condition: Assignment,
                 rng: RandomSource, sweeps: int, account: _RowAccount,
                 keep: tuple[int, ...]) -> None:
        super().__init__(net, condition, rng, account, keep)
        self._sweeps = sweeps
        clamped = dict(self._condition)
        plan = _plan(net)
        free = [col for col, *_ in plan if col not in clamped]
        kids = {col: tuple(s for s in plan if col in s[1]) for col in free}
        bits = {col: _unbound_blanket(col, plan[col][1], kids[col], clamped)
                for col in free}
        kept = [col for col in keep if col in bits]
        # A kept node with no unbound blanket reads only clamped values, so
        # when every kept node is one, no sweep but the last matters.
        alone = not any(bits[col] for col in kept)
        self._width = len(free)
        # (block, col, update) for the nodes the last sweep updates, and
        # those that every earlier sweep updates.
        self._last = [(i, col, _blanket_update(col, plan[col][1],
                                               plan[col][2], kids[col],
                                               bits[col], clamped))
                      for i, col in enumerate(free)
                      if not alone or col in kept]
        self._every = [] if alone else self._last

    def _sweep(self, m: int, updates, column, flags) -> None:
        # Whole blocks, at most _MAX_DRAW doubles a draw: PCG64 yields the
        # doubles of k draws of m, whatever the draws' sizes.
        step = max(1, _MAX_DRAW // m)
        for start in range(0, self._width, step):
            stop = min(start + step, self._width)
            draws = self._rng.uniforms((stop - start) * m).reshape(-1, m)
            for i, col, update in updates:
                if start <= i < stop:
                    np.less(draws[i - start], update(column), out=flags[col])

    def _next(self, m: int) -> np.ndarray:
        state = _sample_batch(self._net, self._rng, m, clamp=self._condition)
        column = state.__getitem__
        flags = [row.view(bool) for row in state]
        if self._every:
            for _ in range(self._sweeps - 1):
                self._sweep(m, self._every, column, flags)
        else:
            self._rng.skip((self._sweeps - 1) * self._width * m)
        self._sweep(m, self._last, column, flags)
        return state[list(self._keep)]


def _make_stream(net: BeliefNetwork, condition: Assignment,
                 kind: TrialGeneratorKind, rng: RandomSource,
                 account: _RowAccount, keep: tuple[int, ...]):
    if kind.kind == "rejection":
        return _RejectionStream(net, condition, rng, account, keep)
    return _GibbsStream(net, condition, rng, kind.burn_in_sweeps, account,
                        keep)


def conditioned_sample_batch(net: BeliefNetwork, condition: Assignment,
                             kind: TrialGeneratorKind, rng: RandomSource,
                             count: int,
                             row_budget: int = DEFAULT_ROW_BUDGET
                             ) -> np.ndarray:
    """``count`` conditioned trials as a (count, n) array."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count!r}")
    net.validate_assignment(condition)
    if len(condition) >= net.n:
        raise ValueError("condition must leave at least one node unbound")
    stream = _make_stream(net, condition, kind, rng,
                          _RowAccount(row_budget), tuple(range(net.n)))
    return np.ascontiguousarray(stream.take(count).T)


def _check_risk_params(epsilon: float, delta: float) -> None:
    if not 0.0 < epsilon < np.inf:
        raise ValueError(
            f"epsilon must be positive and finite, got {epsilon!r}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")


class _Reader:
    """One estimate certified on a stream, with its own counts and stop.

    ``classify(rows)`` counts rows in 2^s_size categories, and the rule
    certifies ``category`` (phase "fraction"), or every category when it
    is None (phase "distribution"). Its worst-case bound W bounds phi_min
    over ``nodes``, and is None when it has no finite value. The phase
    and ``name`` label a budget error raised while it is unfinished.
    ``posterior`` and ``trials`` are set when it is certified.
    """

    def __init__(self, classify, s_size: int, net: BeliefNetwork,
                 nodes: tuple[str, ...], epsilon: float, delta: float,
                 category: int | None = None, name: str = "") -> None:
        self.phase = "distribution" if category is None else "fraction"
        try:
            self.bound = worst_case_sample_bound(
                s_size, epsilon, delta, _phi_floor(net, nodes))
        except NonPositivePhiMinError:
            self.bound = None
        self.classify, self.category, self.name = classify, category, name
        self.counts = np.zeros(1 << s_size, dtype=np.int64)
        self.trials = 0
        self.posterior: DirichletPosterior | None = None


def _certify(draw, readers: Sequence[_Reader], epsilon: float,
             delta: float) -> None:
    """Classify drawn rows until the stopping rule certifies every reader.

    ``draw(m)`` is a _Stream's ``take``, the next ``m`` rows. Every
    unfinished reader classifies each row drawn, and drawing stops when
    the last reader is certified. The readers share their category count
    k. Checkpoints double from k, and each reader's W is a checkpoint
    too; at each one every unfinished reader is evaluated, and it
    certifies only once all its categories have been observed. The
    run's row budget is the one bound on the rows drawn: a batch past
    it raises again, naming the first unfinished reader and its phase,
    and counting every reader's trials, those at which it certified or
    else all drawn. Each row falls in exactly one category, so every
    reader's posterior has the same n, and its counts, made here, need
    no checks.
    """
    k = len(readers[0].counts)
    # Each W that is not already a checkpoint, largest first.
    marks = sorted({r.bound for r in readers if r.bound is not None
                    and r.bound > k and r.bound & (r.bound - 1)},
                   reverse=True)
    live, trials, checkpoint = list(readers), 0, k
    while live:
        if marks and marks[-1] < checkpoint:
            stop = marks.pop()
        else:
            stop, checkpoint = checkpoint, 2 * checkpoint
        while trials < stop:
            m = min(stop - trials, _MAX_CHUNK)
            try:
                rows = draw(m)
            except RowBudgetExceededError as exc:
                first = live[0]
                scored = sum(trials if r.posterior is None else r.trials
                             for r in readers)
                raise RowBudgetExceededError(
                    f"{first.name}: {exc}" if first.name else str(exc),
                    phase=first.phase, trials=scored, cap=exc.cap) from exc
            for r in live:
                r.counts += r.classify(rows)
            trials += m
        for r in live:
            posterior = DirichletPosterior._trusted(tuple(r.counts.tolist()),
                                                    trials)
            if should_stop(posterior, epsilon, delta, category=r.category):
                r.posterior, r.trials = posterior, trials
        live = [r for r in live if r.posterior is None]


def estimate_distribution_over(net: BeliefNetwork, s_nodes: Sequence[str],
                               epsilon: float, delta: float,
                               rng: RandomSource, *,
                               row_budget: int = DEFAULT_ROW_BUDGET
                               ) -> tuple[tuple[float, ...], int]:
    """Certified estimate of the joint distribution over ``s_nodes``.

    Logic samples are classified into the 2^|S| instantiations (first
    listed node is the most significant bit) until the stopping rule
    certifies every category to relative error epsilon with total failure
    probability at most delta. The estimate draws at most ``row_budget``
    raw rows. Returns the posterior mean vector and the trial count.
    This is the paper's estimator of the knitting weights Pr[S = s];
    infer computes them exactly instead.
    """
    _check_risk_params(epsilon, delta)
    s = tuple(s_nodes)
    if not s:
        return (1.0,), 0
    if len(s) > _MAX_CATEGORY_NODES:
        raise NetworkTooLargeError(
            f"{len(s)} nodes span too many categories "
            f"(limit {_MAX_CATEGORY_NODES})")
    net.validate_nodes(s)
    cols = tuple(net.index(x) for x in s)
    positions = range(len(cols))
    reader = _Reader(lambda rows: np.bincount(_index(rows.__getitem__,
                                                     positions),
                                              minlength=1 << len(s)),
                     len(s), net, s, epsilon, delta)
    _certify(_RejectionStream(net, {}, rng, _RowAccount(row_budget),
                              cols).take, (reader,), epsilon, delta)
    return reader.posterior.mu, reader.trials


def estimate_conditional_fraction(net: BeliefNetwork, target: Assignment,
                                  condition: Assignment, epsilon: float,
                                  delta: float, kind: TrialGeneratorKind,
                                  rng: RandomSource, *,
                                  row_budget: int = DEFAULT_ROW_BUDGET
                                  ) -> RasEstimate:
    """Certified estimate of Pr[target | condition] by scored trials.

    Conditioned trials are scored consistent or inconsistent with
    ``target``. The answer reads only the consistent fraction, so the
    stopping rule certifies that category alone, once both have been
    observed. The empty target needs no trials and estimates 1. The
    worst-case bound W, a checkpoint, is sized over target and condition
    together, since Pr[target | condition] >= Pr[target, condition].
    The estimate draws at most ``row_budget`` raw rows.
    """
    _check_risk_params(epsilon, delta)
    net.validate_assignment(condition)
    net.validate_assignment(target)
    check_disjoint(target, condition, "target and condition")
    return _fractions(net, {"": target}, condition, epsilon, delta, kind,
                      rng, _RowAccount(row_budget))[""]


def _match_all(at: list[int], values: list[int]):
    """Count the rows whose slots ``at`` hold ``values``: the returned
    classify(rows) gives (misses, hits)."""
    if at == list(range(at[0], at[0] + len(at))):
        at = slice(at[0], at[0] + len(at))  # a view, not a copy
    want = np.array([[v] for v in values], dtype=np.uint8)

    def classify(rows):
        hits = np.count_nonzero(np.all(rows[at] == want, axis=0))
        return rows.shape[1] - hits, hits
    return classify


def _match_one(at: int, value: int):
    """_match_all for one slot: its row of 0s and 1s counts its 1s."""
    def classify(rows):
        ones = np.count_nonzero(rows[at])
        hits = ones if value else rows.shape[1] - ones
        return rows.shape[1] - hits, hits
    return classify


def _classifier(at: list[int], values: list[int]):
    """_match_one for one slot, _match_all for more."""
    if len(at) == 1:
        return _match_one(at[0], values[0])
    return _match_all(at, values)


def _fractions(net: BeliefNetwork, targets: dict[str, Assignment],
               condition: Assignment, epsilon: float, delta: float,
               kind: TrialGeneratorKind, rng: RandomSource,
               account: _RowAccount) -> dict[str, RasEstimate]:
    """Certified Pr[t | condition] for each named target t, every one
    read from one conditioned stream, as estimate_conditional_fraction
    certifies one. Each target is a reader of the stream, and its name
    prefixes its budget errors. The stream charges its rows to
    ``account``. The caller has checked the bindings: each
    target is disjoint from the condition, all name known nodes, and
    epsilon and delta are in range."""
    keep = tuple(dict.fromkeys(net.index(x) for target in targets.values()
                               for x in target))
    slot = {col: i for i, col in enumerate(keep)}
    readers = {name: _Reader(_classifier([slot[net.index(x)] for x in target],
                                         list(target.values())),
                             1, net, (*target, *condition), epsilon, delta,
                             category=1, name=name)
               for name, target in targets.items() if target}
    if readers:
        stream = _make_stream(net, condition, kind, rng, account, keep)
        _certify(stream.take, tuple(readers.values()), epsilon, delta)
    estimates = {}
    for name in targets:
        r = readers.get(name)
        estimates[name] = (
            RasEstimate(1.0, epsilon, delta, 0, 0) if r is None else
            RasEstimate(r.posterior.mu[1], epsilon, delta, r.trials,
                        r.posterior.counts[1]))
    return estimates
