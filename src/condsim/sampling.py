"""Trial generation and scoring for randomized approximation.

Logic sampling draws full assignments from the factored joint by walking
nodes in topological order. Conditioned trials come from either rejection
(exact, cost inverse in the condition probability) or Gibbs sweeps over
the unbound nodes (approximate, fixed cost per trial). Estimators feed
trial categories into a Dirichlet posterior and stop at the first
geometric checkpoint the stopping rule certifies.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Sequence

import numpy as np

from .dependence import dependence_value, phi_min_lower_bound
from .errors import (
    NetworkTooLargeError,
    OverlappingSetsError,
    RejectionBudgetExceededError,
    SampleBudgetExceededError,
)
from .network import Assignment, BeliefNetwork
from .stopping import (
    DirichletPosterior,
    PriorChoice,
    should_stop,
    worst_case_sample_bound,
)

DEFAULT_REJECTION_CAP = 10 ** 7
_GENERATOR_KINDS = ("rejection", "gibbs")

_MASK64 = (1 << 64) - 1
# Rows per draw between checkpoints. A rejection stream returns the same
# rows however a count is split into draws; a Gibbs stream does as long
# as this stays a multiple of its chunk size, _MAX_RAW_BATCH.
_MAX_CHUNK = 1 << 18
_MAX_RAW_BATCH = 1 << 16
_MAX_CATEGORY_NODES = 20
_SWEEP_CEILING = 10 ** 6


def mix_seed(seed: int, stream: int) -> int:
    """Derive a decorrelated 64-bit seed for a numbered substream."""
    x = (seed + (stream + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class RandomSource:
    """Deterministic random stream identified by a 64-bit seed.

    Backed by numpy's PCG64 generator, so equal seeds give bit-identical
    sample sequences on every platform. Consuming draws advances internal
    state; ``derive`` ignores that state and mixes the original seed with
    a stream number, so substream layouts are reproducible regardless of
    how much the parent stream has been used.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int) -> None:
        seed = int(seed)
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 unsigned bits: {seed!r}")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"

    def derive(self, stream: int) -> "RandomSource":
        """Independent source for substream ``stream`` of this seed."""
        if stream < 0:
            raise ValueError(f"stream must be nonnegative, got {stream!r}")
        return RandomSource(mix_seed(self.seed, stream))

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` doubles drawn uniformly from [0, 1)."""
        return self._gen.random(count)


@dataclass(frozen=True)
class TrialGeneratorKind:
    """Which conditioned-trial generator to run.

    ``burn_in_sweeps`` applies to the gibbs kind only; None means choose
    at call time from the condition's dependence value, as
    ceil(min(D^4, 1e6)).
    """

    kind: str
    burn_in_sweeps: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "rejection" and self.burn_in_sweeps is not None:
            raise ValueError("rejection takes no burn-in")
        if (self.kind == "gibbs" and self.burn_in_sweeps is not None
                and self.burn_in_sweeps < 1):
            raise ValueError("burn_in_sweeps must be at least 1")

    @classmethod
    def rejection(cls) -> "TrialGeneratorKind":
        return cls("rejection")

    @classmethod
    def gibbs(cls, burn_in_sweeps: int | None = None) -> "TrialGeneratorKind":
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
def _plan(net: BeliefNetwork) -> tuple[tuple[int, tuple[int, ...],
                                             np.ndarray], ...]:
    """Per node in topological order: column, parent columns, CPT rows."""
    steps = []
    for name in net.topo_order:
        cpt = net.cpt(name)
        cols = tuple(net.index(p) for p in cpt.parents)
        rows = np.asarray(cpt.rows, dtype=np.float64)
        steps.append((net.index(name), cols, rows))
    return tuple(steps)


def _row_indices(state: np.ndarray, cols: tuple[int, ...]) -> np.ndarray:
    idx = np.zeros(len(state), dtype=np.int64)
    for col in cols:
        idx = (idx << 1) | state[:, col]
    return idx


def _sample_batch(net: BeliefNetwork, rng: RandomSource, count: int,
                  clamp: dict[int, int] | None = None) -> np.ndarray:
    """Forward-sample ``count`` assignments, holding clamped columns fixed.

    Returns a (count, n) uint8 array with columns in declaration order.
    """
    out = np.empty((count, net.n), dtype=np.uint8)
    for col, parent_cols, rows in _plan(net):
        if clamp is not None and col in clamp:
            out[:, col] = clamp[col]
            continue
        if parent_cols:
            p = rows[_row_indices(out, parent_cols)]
        else:
            p = rows[0]
        out[:, col] = rng.uniforms(count) < p
    return out


def logic_sample_batch(net: BeliefNetwork, rng: RandomSource,
                       count: int) -> np.ndarray:
    """``count`` joint samples as a (count, n) array, declaration order."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count!r}")
    return _sample_batch(net, rng, count)


def _bound_columns(net: BeliefNetwork,
                   assignment: Assignment) -> tuple[np.ndarray, np.ndarray]:
    cols = np.array([net.index(k) for k in assignment], dtype=np.int64)
    vals = np.array([assignment[k] for k in assignment], dtype=np.uint8)
    return cols, vals


class _RejectionStream:
    """Accepted-sample buffer over repeated forward batches.

    More than ``attempt_cap`` rejected rows in a row raise, wherever the
    run falls across batches; the error's ``trials`` counts the rows
    already taken from the stream.
    """

    def __init__(self, net: BeliefNetwork, condition: Assignment,
                 rng: RandomSource, attempt_cap: int) -> None:
        self._net = net
        self._rng = rng
        self._cap = attempt_cap
        self._cols, self._vals = _bound_columns(net, condition)
        self._parts: list[np.ndarray] = []
        self._count = 0
        self._taken = 0
        self._batch = 256
        self._since_accept = 0

    def _fill(self) -> None:
        m = self._batch
        self._batch = min(self._batch * 2, _MAX_RAW_BATCH)
        raw = _sample_batch(self._net, self._rng, m)
        if len(self._cols):
            hits = np.flatnonzero(
                np.all(raw[:, self._cols] == self._vals, axis=1))
        else:
            hits = np.arange(m)
        if len(hits) == 0:
            self._since_accept += m
        else:
            longest = self._since_accept + int(hits[0])
            if len(hits) > 1:
                longest = max(longest, int(np.diff(hits).max()) - 1)
            if longest > self._cap:
                self._fail()
            self._since_accept = m - 1 - int(hits[-1])
            accepted = raw[hits]
            self._parts.append(accepted)
            self._count += len(accepted)
        if self._since_accept > self._cap:
            self._fail()

    def _fail(self) -> None:
        raise RejectionBudgetExceededError(
            f"no accepted trial within {self._cap} attempts",
            phase="rejection", trials=self._taken, cap=self._cap)

    def take(self, count: int) -> np.ndarray:
        while self._count < count:
            self._fill()
        rows = self._parts[0] if len(self._parts) == 1 else np.concatenate(
            self._parts)
        taken, rest = rows[:count], rows[count:]
        self._parts = [rest] if len(rest) else []
        self._count = len(rest)
        self._taken += count
        return taken


class _GibbsStream:
    """Independent Gibbs chains, one per requested trial."""

    def __init__(self, net: BeliefNetwork, condition: Assignment,
                 rng: RandomSource, sweeps: int) -> None:
        self._net = net
        self._rng = rng
        self._sweeps = sweeps
        self._clamp = {net.index(k): v for k, v in condition.items()}
        plan = _plan(net)
        children: dict[int, list[tuple[np.ndarray, int, int, tuple]]] = {}
        for ccol, pcols, crows in plan:
            for pos, pcol in enumerate(pcols):
                bit = 1 << (len(pcols) - 1 - pos)
                others = tuple((c, len(pcols) - 1 - j)
                               for j, c in enumerate(pcols) if j != pos)
                children.setdefault(pcol, []).append(
                    (crows, ccol, bit, others))
        self._updates = [
            (col, pcols, rows, tuple(children.get(col, ())))
            for col, pcols, rows in plan if col not in self._clamp
        ]

    def _chunk(self, m: int) -> np.ndarray:
        state = _sample_batch(self._net, self._rng, m, clamp=self._clamp)
        for _ in range(self._sweeps):
            for col, pcols, rows, kids in self._updates:
                if pcols:
                    p1 = rows[_row_indices(state, pcols)]
                else:
                    p1 = np.full(m, rows[0])
                w1 = p1
                w0 = 1.0 - p1
                for crows, ccol, bit, others in kids:
                    base = np.zeros(m, dtype=np.int64)
                    for ocol, shift in others:
                        base |= state[:, ocol].astype(np.int64) << shift
                    on = crows[base + bit]
                    off = crows[base]
                    is_one = state[:, ccol] == 1
                    w1 = w1 * np.where(is_one, on, 1.0 - on)
                    w0 = w0 * np.where(is_one, off, 1.0 - off)
                state[:, col] = self._rng.uniforms(m) < w1 / (w1 + w0)
        return state

    def take(self, count: int) -> np.ndarray:
        parts = []
        left = count
        while left > 0:
            m = min(left, _MAX_RAW_BATCH)
            parts.append(self._chunk(m))
            left -= m
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def default_burn_in_sweeps(net: BeliefNetwork, condition: Assignment) -> int:
    """Sweep count used when a gibbs kind does not fix one."""
    d = dependence_value(net, condition).value
    return max(1, math.ceil(min(d ** 4, float(_SWEEP_CEILING))))


def _make_stream(net: BeliefNetwork, condition: Assignment,
                 kind: TrialGeneratorKind, rng: RandomSource,
                 attempt_cap: int):
    net.validate_assignment(condition)
    if len(condition) >= net.n:
        raise ValueError("condition must leave at least one node unbound")
    if kind.kind == "rejection":
        return _RejectionStream(net, condition, rng, attempt_cap)
    sweeps = kind.burn_in_sweeps
    if sweeps is None:
        sweeps = default_burn_in_sweeps(net, condition)
    return _GibbsStream(net, condition, rng, sweeps)


def conditioned_sample_batch(net: BeliefNetwork, condition: Assignment,
                             kind: TrialGeneratorKind, rng: RandomSource,
                             count: int,
                             attempt_cap: int = DEFAULT_REJECTION_CAP
                             ) -> np.ndarray:
    """``count`` conditioned trials as a (count, n) array."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count!r}")
    return _make_stream(net, condition, kind, rng, attempt_cap).take(count)


def _check_risk_params(epsilon: float, delta: float) -> None:
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")


def _certify(draw, classify, k: int, epsilon: float, delta: float,
             prior: PriorChoice, sample_cap: int, phase: str
             ) -> tuple[DirichletPosterior, int]:
    """Count classified rows until the stopping rule certifies them.

    ``draw(m)`` returns the next ``m`` rows of a stream and
    ``classify(rows)`` their length-``k`` category counts. The rule is
    evaluated at checkpoints that double from ``k`` trials; a checkpoint
    past ``sample_cap`` raises. Returns the certified posterior and the
    trial count.
    """
    counts = np.zeros(k, dtype=np.int64)
    trials = 0
    checkpoint = k
    while True:
        if checkpoint > sample_cap:
            raise SampleBudgetExceededError(
                f"stopping rule unsatisfied at {trials} trials",
                phase=phase, trials=trials, cap=sample_cap)
        while trials < checkpoint:
            m = min(checkpoint - trials, _MAX_CHUNK)
            counts += classify(draw(m))
            trials += m
        posterior = DirichletPosterior(tuple(counts), prior)
        if should_stop(posterior, epsilon, delta):
            return posterior, trials
        checkpoint *= 2


def estimate_distribution_over(net: BeliefNetwork, s_nodes: Sequence[str],
                               epsilon: float, delta: float,
                               prior: PriorChoice, rng: RandomSource,
                               sample_cap: int | None = None
                               ) -> tuple[tuple[float, ...], int]:
    """Certified estimate of the joint distribution over ``s_nodes``.

    Logic samples are classified into the 2^|S| instantiations (first
    listed node is the most significant bit) until the stopping rule
    certifies every category to relative error epsilon with total failure
    probability at most delta. Returns the posterior mean vector and the
    trial count.
    """
    _check_risk_params(epsilon, delta)
    s = tuple(s_nodes)
    if not s:
        return (1.0,), 0
    if len(s) > _MAX_CATEGORY_NODES:
        raise NetworkTooLargeError(
            f"{len(s)} nodes span too many categories "
            f"(limit {_MAX_CATEGORY_NODES})")
    phi_bound = phi_min_lower_bound(net, s)
    k = 1 << len(s)
    if sample_cap is None:
        sample_cap = 10 * worst_case_sample_bound(len(s), epsilon, delta,
                                                  phi_bound)
    cols = tuple(net.index(x) for x in s)
    posterior, trials = _certify(
        lambda m: _sample_batch(net, rng, m),
        lambda rows: np.bincount(_row_indices(rows, cols), minlength=k),
        k, epsilon, delta, prior, sample_cap, "distribution")
    return posterior.mu, trials


def estimate_conditional_fraction(net: BeliefNetwork, target: Assignment,
                                  condition: Assignment, epsilon: float,
                                  delta: float, kind: TrialGeneratorKind,
                                  rng: RandomSource, *,
                                  prior: PriorChoice = PriorChoice.UNBIASED,
                                  sample_cap: int | None = None,
                                  attempt_cap: int = DEFAULT_REJECTION_CAP
                                  ) -> RasEstimate:
    """Certified estimate of Pr[target | condition] by scored trials.

    Conditioned trials are scored consistent or inconsistent with
    ``target``; the two-category stopping rule certifies the consistent
    fraction. The empty target needs no trials and estimates 1.
    """
    _check_risk_params(epsilon, delta)
    net.validate_assignment(target)
    net.validate_assignment(condition)
    shared = sorted(set(target) & set(condition))
    if shared:
        raise OverlappingSetsError(
            f"target and condition both bind: {', '.join(shared)}")
    if not target:
        return RasEstimate(1.0, epsilon, delta, 0, 0)
    phi_bound = phi_min_lower_bound(net, tuple(target))
    if sample_cap is None:
        sample_cap = 10 * worst_case_sample_bound(1, epsilon, delta,
                                                  phi_bound)
    stream = _make_stream(net, condition, kind, rng, attempt_cap)
    t_cols, t_vals = _bound_columns(net, target)
    posterior, trials = _certify(
        stream.take,
        lambda rows: np.bincount(
            np.all(rows[:, t_cols] == t_vals, axis=1), minlength=2),
        2, epsilon, delta, prior, sample_cap, "fraction")
    return RasEstimate(posterior.mu[1], epsilon, delta, trials,
                       posterior.counts[1])
