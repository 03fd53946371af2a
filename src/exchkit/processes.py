"""Exchangeable sequence generators and exact prefix-law oracles.

A generator produces finite paths deterministically from a counter-based
stream keyed by (master seed, path index). On finite state spaces and small n
it also exposes the exact joint law of the first n coordinates in rational
arithmetic; that law is the brute-force oracle behind the exchangeability
check and the mixture-identity checks.

Generator variants, each with its de Finetti mixing law Q:

* ``IIDProcess``            -- iid draws from a base measure; Q is one atom.
* ``GridMixtureProcess``    -- latent parameter from a finite prior grid, then
  iid draws from a component kernel; Q is the prior.
* ``BetaBernoulliProcess``  -- Beta(a, b) latent success probability, then iid
  coin flips; the realized latent is continuous and stored on the path.
* ``PolyaUrnProcess``       -- two-color urn with reinforcement; Q is Beta(a, b).
* ``MarkovChainProcess``    -- a deliberately non-exchangeable control; no Q.

``mixing()`` is the one declaration of Q, finite (weight, theta) atoms or
Beta(a, b), and of the kernel from theta to the law of each coordinate.
``prefix_pattern_law``, ``marginal`` and ``latent_kernel`` (which every kernel
target and verdict asks) are derived from it. The urn's exact law is its own
walk, checked against its Q by ``polya_beta_equivalence``; its paths carry no
realized theta, so its ``latent_kernel()`` is None.

Every exact oracle passes one gate (``_exact_law``), which refuses a law
whose probabilities are not all rational and counts the entries the oracle
would enumerate before it starts, factor by factor so that a huge n is
refused within a few factors, raising ``ValueError`` naming the oracle cap
above ``_ORACLE_WORK_CAP`` (10**8):
``check_exchangeable`` n!*k**n (permutation, pattern) steps, ``prefix_law``
n*k**n pattern entries (the n keeps counting on a one-cell space),
``polya_beta_equivalence`` 2**n urn patterns, and in ``empirical``
``df_product_identity_exact`` k**n*n**m (pattern, index tuple) steps and
``SymmetricPrefixCondition`` k**m*m predicate calls.

Every generator draws its paths in lanes (``ProcessGenerator._blocks``): L
paths side by side, each its own row of every block, as Philox streams are
counter-based and each lane reads its own (Salmon et al., SC'11). A block is
L x m draws, at most ``_LANE_BLOCK`` (2**14, in ``rng``), for one lane as for
many: each block's uniforms are read into one reused buffer and its draws
written into another, and the sequential samplers carry each lane's urn
counts or chain state from block to block. Each row reads the uniforms of its
path's one ``stream.random(n)`` in order, and every step is elementwise over
the lanes or a loop over them, so a lane is its path's draws bit for bit,
whatever lanes are drawn beside it.

A Monte Carlo check counts each block as it is drawn (``sample_blocks``), one
group of ``_lanes(n, n_paths)`` paths at a time, sized from the paths still
to draw: as many whole paths as fill a lane block, at most ``_LANES`` (256),
or 16 rows of ``_LANE_ROW`` (2**10) draws for paths longer than that row, and
a path longer than a lane block alone. An urn group is one lane, or, while
``_POLYA_LOCKSTEP_LANES`` (40) paths of at most a lane block are left, up to
``_LANES`` of them for the lockstep below. Paths of a grid mixture whose
drawn images differ are drawn one image at a time, each image's lanes in one
call per block. ``sample_path`` is the one-lane case, its blocks joined into
the one path-length array, for ``simulate`` and the tests.

The two sequential samplers return the observations of a per-step loop bit
for bit, in numpy operations over each lane block:

* Markov: every state reads the step's uniform, so a step is a map from each
  state to the next (the grand coupling), and a step whose map is constant
  fixes the state whatever came before: the chains coalesce (Propp & Wilson
  1996). With two states, every chain the CLI builds, a step compares its
  uniform with each row's one inner boundary, and a step that does not fix
  the state is the identity or the swap. So the state is the last fixed state
  xor the parity of the swaps since, one running sum per lane block, the
  lanes laid end to end as one chain, each restarted by its carried state
  (``_two_state_steps``). With k > 2 states each lane steps one draw at a
  time, bisecting its row's cumulative list.
* Polya: the loop draws a one when u < fl(o / N), for o ones among N balls.
  While the urn holds fewer than ``_POLYA_WARMUP_BALLS`` (256) balls, its
  ratio moves on every draw, so those draws run as the loop itself. Then an
  urn of integer counts is solved in blocks of min(``_POLYA_BLOCK``, 4 x the
  balls in the urn) draws, which bounds how far the ratio drifts inside a
  block; the rule follows the urn's size, not the workload. Draw j of a block
  of m meets N + j balls and o to o + j ones; as rounding keeps order, a
  uniform below fl(o / L), L = N + m - 1, draws a one and one at or above
  fl((o + m - 1) / L) a zero, whatever the draws before it. On 10**6-draw
  Polya(1,1) paths 4% of the draws stay open. The ratio never falls as the
  ones grow, so an open draw is a one iff the ones before it reach t, the
  least integer with fl(t / (N + j)) > u (``_least_ones``). The open draws
  are guessed from the opening ratio, then each is compared with its t, given
  the ones that the settled draws and the guess put before it. A draw depends
  only on the draws before it, so every draw up to and including the first
  one that changed is exact; those are committed and the rest is solved
  again. Each pass costs the rest of the open draws; uniforms placed on the
  thresholds need up to one pass per draw. An urn whose counts are not
  integers, or whose balls would reach 2**53 within the path, runs the loop
  on every draw.
* Polya lanes: a group of several lanes runs the loop on every draw, in
  lockstep (``_urn_lockstep``): one numpy step compares every lane's uniform
  with its own ones / (ones + zeros), the loop's arithmetic, so any counts,
  integer or not, draw as the loop does. A step costs about 4 us at 64 lanes
  and 6.5 us at 256 (2 vCPUs of a Xeon), whatever the urn's size, while a
  lane drawn alone loops its warm-up and solves the rest. On 1000-draw
  Polya(1,1) and Polya(1,99) paths 40 lanes took 5 ms in lockstep against 8
  to 12 ms one lane at a time, so ``_lanes`` groups urns from
  ``_POLYA_LOCKSTEP_LANES`` (40) on; on 10**4-draw paths one lane at a time
  was faster up to 64 lanes (23 to 43 ms against 47 to 54) and slower at 256.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, permutations, product, repeat
from numbers import Rational
from typing import Callable, Iterable, Sequence

import numpy as np

from .kernels import MarkovKernel, bernoulli_kernel, constant_kernel
from .measures import ProbMeasure, mix_measures
from .rng import _LANE_BLOCK, block_buffers, path_stream, skip_uniforms, uniform_blocks
from .spaces import Record, SpaceDescriptor, finite

# entries that one exact oracle may enumerate
_ORACLE_WORK_CAP = 10**8
# the most paths sampled at once, side by side as lanes, and the fewest draws
# of each that a lane block holds
_LANES = 256
_LANE_ROW = 1 << 10
# Sequential samplers. The urn size that the Polya draws are looped to, then
# the most draws per Polya block: a block's cost is a few comparisons per draw
# plus passes over the draws that its screen leaves open.
_POLYA_WARMUP_BALLS = 256
_POLYA_BLOCK = 8192
# the fewest urn paths sampled as a group, all their draws looped in lockstep,
# one numpy step for all lanes; fewer are sampled one lane at a time, through
# the warm-up loop and the block solver
_POLYA_LOCKSTEP_LANES = 40


# ---------------------------------------------------------------------------
# patterns and mixing laws

def all_patterns(space: SpaceDescriptor, n: int):
    return product(range(space.num_cells), repeat=n)


def _exact_or_float(x):
    """A parameter as a Fraction when it is rational, else as a float, so a
    law computed from a float parameter is a float law, which the exact
    oracles refuse."""
    return Fraction(x) if isinstance(x, Rational) else float(x)


def beta_binomial_pattern_prob(a, b, n: int, k: int) -> Fraction:
    """P(a fixed binary pattern of n draws with k ones) = B(a+k, b+n-k) / B(a, b)
    for rational a, b > 0: with d the lcm of their denominators, A = a*d and
    B = b*d, prod_{i<k}(A+i*d) prod_{i<n-k}(B+i*d) / prod_{i<n}(A+B+i*d)."""
    if not (isinstance(a, Rational) and isinstance(b, Rational)):
        raise ValueError("exact oracles require rational generator parameters")
    d = math.lcm(a.denominator, b.denominator)
    ad, bd = int(a * d), int(b * d)
    num = math.prod(range(ad, ad + k * d, d)) * math.prod(range(bd, bd + (n - k) * d, d))
    return Fraction(num, math.prod(range(ad + bd, ad + bd + n * d, d)))


@dataclass(frozen=True)
class _Mixing:
    """A mixing law Q and its kernel: theta ~ Q, then iid ``kernel.measure(theta)``
    draws. Q is ``atoms`` ((w, theta), ...) with their ``images``, or Beta(*``beta``)."""

    kernel: MarkovKernel
    atoms: tuple = ()
    images: tuple = ()
    beta: tuple | None = None

    def pattern_law(self, n: int, keep: Callable = lambda theta: True) -> dict[tuple[int, ...], Fraction]:
        """E_Q[prod_t kernel(theta)(x_t); theta kept] for every pattern x in
        ``all_patterns`` order: under Beta, every theta kept, once per count of
        ones; else over the atoms whose theta ``keep`` accepts, 0 if none."""
        space = self.kernel.target
        if self.beta is not None:
            by_count = [beta_binomial_pattern_prob(*self.beta, n, k) for k in range(n + 1)]
            return {pattern: by_count[sum(pattern)] for pattern in all_patterns(space, n)}
        tables = [(Fraction(w), [mu.atom_mass(j) for j in range(space.num_cells)])
                  for (w, theta), mu in zip(self.atoms, self.images) if keep(theta)]
        law = {}
        for pattern in all_patterns(space, n):
            p = Fraction(0)
            for w, atoms in tables:
                p += math.prod((atoms[x] for x in pattern), start=w)
            law[pattern] = p
        return law


# ---------------------------------------------------------------------------
# sampling from a measure

def sample_from_measure(mu: ProbMeasure, stream: np.random.Generator, n: int) -> np.ndarray:
    """Draw n iid cells from a measure using the given stream, as one array
    (the one-lane blocks of :func:`_measure_blocks`)."""
    return _concatenated(_measure_blocks(mu, [stream], n, *block_buffers(n)), n)


def _measure_blocks(mu: ProbMeasure, streams, n: int, u: np.ndarray, out: np.ndarray):
    """n iid cells of a measure in each lane, as L x m blocks written to
    ``out``, from the uniforms that :func:`uniform_blocks` reads into ``u``
    (row l from ``streams[l]``). Every step below is elementwise, so each
    lane's draws are those of the lane sampled alone.

    Finitely supported measures consume one uniform per draw; measures with
    geometric components consume two runs of n uniforms, u1 for the branch
    (the finite part, then each component) and u2 for the cell within it (a
    ``searchsorted`` on the finite part, the inverse cdf on a component).
    All of u1 is read before u2: with several live branches a copy of each
    stream, moved past u1 by :func:`skip_uniforms`, reads the u2 blocks beside
    the u1 blocks, and the stream ends where that copy does. When the
    cumulative branch weights reach 1.0 at the first branch of positive weight
    (a single live branch, as in every ``geometric_kernel`` image), every u1
    in [0, 1) selects that branch. Then u1 is not generated: the stream skips
    it, and the cells are computed in place in u2.
    """
    cells, probs = mu._float_table
    comps = mu._components

    if not comps:
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        # every uniform lies below cum[-1] = 1.0, so no index is clipped; with
        # mode="raise" take would copy the block before writing it to out
        for ub in uniform_blocks(streams, n, u):
            yield np.take(cells, np.searchsorted(cum, ub, side="right"), out=out[:, :ub.shape[1]], mode="clip")
        return

    branch_probs = np.concatenate([[probs.sum()], [float(c.weight) for c in comps]])
    branch_cum = np.cumsum(branch_probs)
    branch_cum[-1] = 1.0
    first = int(np.searchsorted(branch_cum, 0.0, side="right"))

    def fill(b, u2, obs, where):
        """The cells of branch b at ``where``: a mask, or ... for all draws."""
        u = u2[where]  # a copy under a mask, u2 itself under ...
        if b == 0:
            if probs.sum() <= 0:
                raise ValueError("branch selected an empty finite part")
            cum = np.cumsum(probs / probs.sum())
            cum[-1] = 1.0
            obs[where] = cells[np.searchsorted(cum, u, side="right")]
        elif (q := float(comps[b - 1].ratio)) >= 1.0:
            obs[where] = 0
        else:
            np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
            np.log(u, out=u)
            u /= math.log1p(-q)
            obs[where] = np.floor(u, out=u)

    if branch_cum[first] >= 1.0:
        for stream in streams:
            skip_uniforms(stream, n)
        for u2 in uniform_blocks(streams, n, u):
            obs = out[:, :u2.shape[1]]
            fill(first, u2, obs, ...)
            yield obs
        return
    cell_streams = [copy.deepcopy(stream) for stream in streams]
    for stream in cell_streams:
        skip_uniforms(stream, n)
    for u1, u2 in zip(uniform_blocks(streams, n, np.empty_like(u)), uniform_blocks(cell_streams, n, u)):
        obs = out[:, :u2.shape[1]]
        branch = np.searchsorted(branch_cum, u1, side="right")
        for b in range(len(branch_cum)):
            mask = branch == b
            if mask.any():
                fill(b, u2, obs, mask)
        yield obs
    for stream, cell_stream in zip(streams, cell_streams):
        stream.bit_generator.state = cell_stream.bit_generator.state


def _concatenated(blocks, n: int) -> np.ndarray:
    """The n draws of the one lane that ``blocks`` yields, in order, as one
    int64 array."""
    obs = np.empty(n, dtype=np.int64)
    start = 0
    for (block,) in blocks:
        obs[start:start + len(block)] = block
        start += len(block)
    return obs


def _least_ones(u, balls):
    """The least count t of ones with fl(t / balls) > u, elementwise: an urn of
    ``balls`` balls, an integer below 2**53, draws a one on the uniform u iff
    it holds t ones or more. fl(u * balls) lies within one of u * balls, so t
    is its floor plus 0, 1 or 2. The comparisons are written as floats, as
    ``_urn_solved`` holds no bool array of the open draws."""
    t = np.floor(u * balls)
    step = np.empty_like(t)
    for _ in range(2):
        t += np.less_equal(np.divide(t, balls, out=step), u, out=step)
    return t


def _two_state_steps(u, out, state, b0, b1):
    """Fill out[l, i] with the state of lane l's two-state chain after step i
    from ``state[l]``: step i moves to state 1 iff u[l, i] >= b_s, the inner
    boundary of the row of the state s it leaves.

    Over GF(2) a step maps s to g0 + (g0 + g1) s, with g_s = [u[i] >= b_s].
    Where g0 = g1 it is constant: the step fixes the state whatever came
    before (the chains coalesce). Elsewhere it is the identity (g0 = 0) or the
    swap (g0 = 1). So, with B the running sum of g0 and f <= i the last step
    that fixes the state, the state after step i is B[i] - B[f - 1] mod 2.
    Each lane's row starts with its carried state as a fixing step, so the
    lanes, laid end to end, are one chain, and its scan is one running sum;
    B[f - 1] is the running maximum of B[i - 1] over the fixing steps i, as B
    never falls.
    """
    lanes, m = u.shape
    # each lane a row of m + 1 cells, the rows end to end
    g0, g1 = np.empty((lanes, m + 1), dtype=bool), np.empty((lanes, m + 1), dtype=bool)
    g0[:, 0] = state
    np.greater_equal(u, b0, out=g0[:, 1:])
    np.greater_equal(u, b1, out=g1[:, 1:])
    fixes = np.equal(g0, g1, out=g1).ravel()
    fixes[::m + 1] = True
    sums = np.cumsum(g0.ravel(), dtype=np.int64)
    floor = np.empty_like(sums)
    floor[0] = 0
    np.multiply(fixes[1:], sums[:-1], out=floor[1:])
    np.maximum.accumulate(floor, out=floor)
    np.subtract(sums.reshape(lanes, m + 1)[:, 1:], floor.reshape(lanes, m + 1)[:, 1:], out=out)
    np.bitwise_and(out, 1, out=out)


def _urn_loop(u, obs, ones: float, zeros: float) -> tuple[float, float]:
    """The urn's per-step loop over one lane's uniforms ``u``, its draws
    written to ``obs``: a one when u < ones / (ones + zeros). Returns the
    counts after."""
    looped = []
    for ui in u.tolist():
        if ui < ones / (ones + zeros):
            ones += 1.0
            looped.append(1)
        else:
            zeros += 1.0
            looped.append(0)
    obs[:] = looped
    return ones, zeros


def _urn_lockstep(u, obs, ones: np.ndarray, zeros: np.ndarray) -> None:
    """:func:`_urn_loop` over L lanes at once, one step of every lane per
    numpy operation, with the loop's own arithmetic, ones / (ones + zeros),
    per lane; ``ones`` and ``zeros`` (length L) are carried in place. The
    uniforms are copied step-major, so each step reads one contiguous row of
    the copy, and the step's draws overwrite that row."""
    steps = u.T.copy()
    ratio, missed = np.empty(len(ones)), np.empty(len(ones))
    for x in steps:
        np.add(ones, zeros, out=ratio)
        np.divide(ones, ratio, out=ratio)
        np.less(x, ratio, out=x)
        ones += x
        np.subtract(1.0, x, out=missed)
        zeros += missed
    obs[...] = steps.T


def _urn_solved(u, obs, ones: float, zeros: float) -> tuple[float, float]:
    """The draws of one lane of an urn of integer counts, past its warm-up,
    solved in blocks (see the module docstring): the loop's draws on the
    uniforms ``u``, written to ``obs``. Returns the counts after."""
    start = 0
    while start < len(u):
        # a block of at most 4x the balls in the urn, so its ratio drifts little
        balls = ones + zeros
        m = min(len(u) - start, _POLYA_BLOCK, int(4 * balls))
        ub = u[start:start + m]
        # the screen: draw j meets balls + j balls, ones to ones + j of them
        # ones, so its ratio lies in [low, high]; below low is a one, from high a zero
        low, high = ones / (balls + m - 1), (ones + m - 1) / (balls + m - 1)
        obs[start:start + m] = settled = ub < low
        pos = np.flatnonzero((ub >= low) & (ub < high))
        uo = ub[pos]
        # open draw j is a one iff the open ones before it reach need[j]
        need = _least_ones(uo, balls + pos) - ones - np.cumsum(settled)[pos]
        # numpy keeps freed arrays under 1 KB for reuse, 7 per length: bool
        # arrays of the open draws' many lengths would stay scattered over
        # the heap, so these are int64, and the passes write into them
        x, before, wrong = (np.empty(len(pos), dtype=np.int64) for _ in range(3))
        # guess the open draws at the opening ratio; each pass recomputes
        # them from the guess, exact up to the first one that changed
        np.less(uo, ones / balls, out=x)
        done = k = 0  # k: the ones among the committed open draws
        while done < len(pos):
            guess, b, w = x[done:], before[:len(pos) - done], wrong[:len(pos) - done]
            np.cumsum(guess, out=b)
            b -= guess
            b += k  # the open ones before each draw, as the guess has them
            np.greater_equal(b, need[done:], out=w)
            np.not_equal(w, guess, out=w)
            first = int(w.argmax())
            end = first + 1 if w[first] else len(w)
            guess ^= w  # the recomputed draws: exact to end, the next guess after
            k += int(np.count_nonzero(guess[:end]))
            done += end
        obs[start + pos] = x
        drawn = int(np.count_nonzero(settled)) + k
        ones, zeros = ones + drawn, zeros + m - drawn
        start += m
    return ones, zeros


# ---------------------------------------------------------------------------
# paths and generators

@dataclass(frozen=True)
class PathSample:
    """One realized path: stream identity, latent draw, and observations."""

    generator: "ProcessGenerator"
    seed: tuple[int, int]  # (master seed, path index)
    latent: object | None
    observations: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.observations) < 1:
            raise ValueError("a path needs at least one observation")

    @property
    def length(self) -> int:
        return len(self.observations)

    @property
    def seed_label(self) -> str:
        return f"{self.seed[0]}:{self.seed[1]}"


class ProcessGenerator:
    """Base class; subclasses fill in sampling and :meth:`mixing`, from which
    the exact prefix law, the marginal and the latent kernel are derived."""

    space: SpaceDescriptor
    exchangeable: bool

    def sample_path(self, n: int, master_seed: int, path_index: int = 0) -> PathSample:
        """One path as one array: the one-lane case of :meth:`_blocks`."""
        if n < 1:
            raise ValueError("path length must be >= 1")
        # The stream is held until the path is built, and the path is a copy
        # allocated after the buffers: a stream freed as its blocks end, or a
        # short path's draw buffer as the path, raised the peak RSS of a run
        # of many short paths by about 2 MB and up to 5 MB (heap placement).
        stream = path_stream(master_seed, path_index)
        (latent,), blocks = self._blocks([stream], n, *block_buffers(n))
        return PathSample(self, (master_seed, path_index), latent, _concatenated(blocks, n))

    def sample_blocks(self, n: int, master_seed: int, paths: Sequence[int]):
        """Paths ``paths`` (indices under ``master_seed``) as lanes: (latents,
        blocks), the blocks of :meth:`_blocks`, lanes x m, drawn as they are
        iterated, through buffers of :func:`block_buffers` that the lanes
        allocate. Row l of each block is path ``paths[l]``, draw for draw the
        path that :meth:`sample_path` returns."""
        if n < 1:
            raise ValueError("path length must be >= 1")
        if not paths:
            raise ValueError("need at least one path")
        streams = [path_stream(master_seed, i) for i in paths]
        return self._blocks(streams, n, *block_buffers(n, len(streams)))

    def _lanes(self, n: int, n_paths: int) -> int:
        """How many of ``n_paths`` paths of n draws :meth:`sample_blocks`
        samples well at once: as many as fill one lane block (``_LANE_BLOCK``
        draws) with rows of ``_LANE_ROW`` draws, or with whole paths if
        shorter, at most ``_LANES`` and ``n_paths``; a path longer than a
        lane block is drawn alone. Shorter rows gain nothing: 200
        grid-mixture paths of 10**4 draws took 38 ms at 16 and 32 lanes, 40
        to 47 ms at 64 and 45 ms alone."""
        return min(n_paths, 1 if n > _LANE_BLOCK else min(_LANES, _LANE_BLOCK // min(n, _LANE_ROW)))

    def _blocks(self, streams: list, n: int, u: np.ndarray, out: np.ndarray):
        """(latents, blocks) of the lanes that ``streams`` key, one path each:
        every lane's latent is drawn first, then the n draws as an iterator
        over consecutive lanes x m blocks, m up to ``u.shape[1]``, each a view
        of ``out`` that the next block overwrites. Row l's uniforms are read
        into ``u`` from ``streams[l]`` by :func:`uniform_blocks`, in the order
        of one ``stream.random(n)``."""
        raise NotImplementedError

    def mixing(self) -> _Mixing | None:
        """The generator's de Finetti mixing law Q and its kernel from theta
        to the law of each coordinate, iid given theta; None if undeclared."""
        return None

    def prefix_pattern_law(self, n: int) -> dict[tuple[int, ...], Fraction]:
        """Exact law of the first n coordinates, in ``all_patterns`` order."""
        return self.mixing().pattern_law(n)

    def marginal(self) -> ProbMeasure:
        """Exact law of a single coordinate, E_Q kernel(theta)."""
        mixing = self.mixing()
        if mixing.beta is None:
            return mix_measures([(w, mu) for (w, _), mu in zip(mixing.atoms, mixing.images)])
        a, b = map(_exact_or_float, mixing.beta)
        return ProbMeasure.bernoulli(self.space, a / (a + b))

    def latent_kernel(self) -> MarkovKernel | None:
        """Kernel mapping a path's latent to the conditional law of its
        coordinates; None when the generator declares no mixing law."""
        mixing = self.mixing()
        return None if mixing is None else mixing.kernel

    def spec_label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class IIDProcess(ProcessGenerator):
    base: ProbMeasure

    exchangeable = True

    @property
    def space(self) -> SpaceDescriptor:
        return self.base.space

    def _blocks(self, streams, n, u, out):
        return [None] * len(streams), _measure_blocks(self.base, streams, n, u, out)

    def mixing(self) -> _Mixing:
        return _Mixing(constant_kernel(self.base), ((1, None),), (self.base,))

    prefix_pattern_law = ProcessGenerator.prefix_pattern_law

    def spec_label(self) -> str:
        return "iid"


@dataclass(frozen=True)
class GridMixtureProcess(ProcessGenerator):
    """Finite-grid prior over a component kernel; conditionally iid."""

    prior: tuple[tuple[object, object], ...]  # ((weight, parameter), ...)
    component: MarkovKernel

    # the component's image at each prior parameter, and the prior's
    # cumulative float weights (the last set to 1.0), built once
    images: tuple[ProbMeasure, ...] = field(init=False, compare=False, repr=False)
    _prior_cum: np.ndarray = field(init=False, compare=False, repr=False)

    exchangeable = True

    def __post_init__(self) -> None:
        total = sum(w for w, _ in self.prior)
        if total != 1:
            raise ValueError(f"prior weights sum to {total}, not 1")
        if any(w < 0 for w, _ in self.prior):
            raise ValueError("prior weights must be non-negative")
        # MarkovKernel.measure validates each image
        object.__setattr__(self, "images", tuple(self.component.measure(theta) for _, theta in self.prior))
        cum = np.cumsum([float(w) for w, _ in self.prior])
        cum[-1] = 1.0
        object.__setattr__(self, "_prior_cum", cum)

    @property
    def space(self) -> SpaceDescriptor:
        return self.component.target

    def _blocks(self, streams, n, u, out):
        drawn = np.searchsorted(self._prior_cum, [stream.random() for stream in streams], side="right").tolist()
        lanes_of = {}  # the lanes of each drawn image, in lane order
        for lane, idx in enumerate(drawn):
            lanes_of.setdefault(idx, []).append(lane)
        latents = [self.prior[idx][1] for idx in drawn]
        if len(lanes_of) == 1:
            return latents, _measure_blocks(self.images[drawn[0]], streams, n, u, out)
        return latents, self._image_blocks(lanes_of, streams, n, u, out)

    def _image_blocks(self, lanes_of, streams, n, u, out):
        """The blocks of lanes whose images differ: each image's lanes are
        drawn together, one :func:`_measure_blocks` call per block, in rows
        of ``u`` of their own, and copied into their rows of ``out``."""
        parts, top = [], 0
        for idx, lanes in lanes_of.items():
            rows = u[top:top + len(lanes)]
            top += len(lanes)
            blocks = _measure_blocks(self.images[idx], [streams[lane] for lane in lanes], n, rows,
                                     np.empty(rows.shape, dtype=np.int64))
            parts.append((lanes, blocks))
        for blocks in zip(*(blocks for _, blocks in parts)):
            obs = out[:, :blocks[0].shape[1]]
            for (lanes, _), block in zip(parts, blocks):
                obs[lanes] = block
            yield obs

    def mixing(self) -> _Mixing:
        return _Mixing(self.component, self.prior, self.images)

    prefix_pattern_law = ProcessGenerator.prefix_pattern_law

    def spec_label(self) -> str:
        pts = ",".join(str(t) for _, t in self.prior)
        return f"mixture(grid={pts})"


@dataclass(frozen=True)
class BetaBernoulliProcess(ProcessGenerator):
    """Beta(a, b) latent success probability, then iid coin flips.

    The exact prefix law is the Beta-Binomial pattern formula, exact for any
    positive rational a, b; sampling works for any positive shape parameters.
    """

    a: object
    b: object

    exchangeable = True

    def __post_init__(self) -> None:
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError("Beta shape parameters must be positive and finite")

    @property
    def space(self) -> SpaceDescriptor:
        return finite(2)

    def _blocks(self, streams, n, u, out):
        a, b = float(self.a), float(self.b)
        p = [stream.beta(a, b) for stream in streams]
        column = np.array(p)[:, None]
        return p, (np.less(ub, column, out=out[:, :ub.shape[1]]) for ub in uniform_blocks(streams, n, u))

    def mixing(self) -> _Mixing:
        return _Mixing(bernoulli_kernel(self.space), beta=(self.a, self.b))

    prefix_pattern_law = ProcessGenerator.prefix_pattern_law

    def spec_label(self) -> str:
        return f"mixture(beta({self.a},{self.b}))"


@dataclass(frozen=True)
class PolyaUrnProcess(ProcessGenerator):
    """Two-color urn: draw a color, put it back with one extra of the same.

    ``a`` counts color 1, ``b`` color 0. Its mixing law is Beta(a, b), but a
    path carries no realized latent, so the urn declares no latent kernel.
    """

    a: object
    b: object

    exchangeable = True

    def __post_init__(self) -> None:
        if not (1 <= self.a < math.inf and 1 <= self.b < math.inf):
            raise ValueError("urn needs a finite count, at least one, of each color")

    @property
    def space(self) -> SpaceDescriptor:
        return finite(2)

    def _lanes(self, n: int, n_paths: int) -> int:
        # a lockstep step costs about the same for every lane, so paths of up
        # to a lane block go _LANES at a time, a block of each per step, while
        # enough are left; else one lane at a time
        return min(_LANES, n_paths) if n <= _LANE_BLOCK and n_paths >= _POLYA_LOCKSTEP_LANES else 1

    def _blocks(self, streams, n, u, out):
        return [None] * len(streams), self._urn_blocks(streams, n, u, out)

    def _urn_blocks(self, streams, n, u, out):
        a, b = float(self.a), float(self.b)
        if len(streams) > 1:  # every draw looped, in lockstep
            ones, zeros = np.full(len(streams), a), np.full(len(streams), b)
            for ub in uniform_blocks(streams, n, u):
                obs = out[:, :ub.shape[1]]
                _urn_lockstep(ub, obs, ones, zeros)
                yield obs
            return
        # one lane, the warm-up: a nearly empty urn moves its ratio on every
        # draw, so the draws that fill it to _POLYA_WARMUP_BALLS balls are
        # looped, as is every draw of an urn whose counts are not integers
        # below 2**53; the rest is solved in blocks
        integral = a.is_integer() and b.is_integer() and int(a) + int(b) + n < 2**53
        warm = min(n, max(0, _POLYA_WARMUP_BALLS - int(a + b))) if integral else n
        for ub in uniform_blocks(streams, n, u):
            obs = out[:, :ub.shape[1]]
            start = min(warm, ub.shape[1])
            warm -= start
            # the solved blocks end at the lane block's end; the carried counts
            # are the loop's, so that edge changes no draw
            a, b = _urn_solved(ub[0, start:], obs[0, start:], *_urn_loop(ub[0, :start], obs[0, :start], a, b))
            yield obs

    def prefix_pattern_law(self, n):
        a0, b0 = _exact_or_float(self.a), _exact_or_float(self.b)
        law = {}

        def walk(prefix, ones, zeros, prob):
            if len(prefix) == n:
                law[tuple(prefix)] = prob
                return
            total = ones + zeros
            walk(prefix + [1], ones + 1, zeros, prob * ones / total)
            walk(prefix + [0], ones, zeros + 1, prob * zeros / total)

        walk([], a0, b0, Fraction(1))
        return law

    mixing = BetaBernoulliProcess.mixing

    def latent_kernel(self) -> MarkovKernel | None:
        return None

    def spec_label(self) -> str:
        return f"polya({self.a},{self.b})"


@dataclass(frozen=True)
class MarkovChainProcess(ProcessGenerator):
    """Negative control: a Markov chain with asymmetric transition rows."""

    initial: ProbMeasure
    rows: tuple[ProbMeasure, ...]

    # the cumulative float weights of the initial law and of each row (k x k),
    # the last entry of each set to 1.0; built once
    _init_cum: np.ndarray = field(init=False, compare=False, repr=False)
    _row_cums: np.ndarray = field(init=False, compare=False, repr=False)

    exchangeable = False

    def __post_init__(self) -> None:
        k = self.initial.space.num_cells
        if k is None or len(self.rows) != k:
            raise ValueError("need one transition row per state of a finite space")
        for row in self.rows:
            if row.space != self.initial.space:
                raise ValueError("transition rows on wrong space")
        cums = np.cumsum([[float(mu.atom_mass(j)) for j in range(k)] for mu in (self.initial, *self.rows)], axis=1)
        cums[:, -1] = 1.0
        object.__setattr__(self, "_init_cum", cums[0])
        object.__setattr__(self, "_row_cums", cums[1:])

    @property
    def space(self) -> SpaceDescriptor:
        return self.initial.space

    def _blocks(self, streams, n, u, out):
        return [None] * len(streams), self._chain_blocks(streams, n, u, out)

    def _chain_blocks(self, streams, n, u, out):
        cums = self._row_cums
        # bisect_right makes searchsorted(side="right")'s comparison, c <= u
        rows = cums.tolist()
        state = None
        for ub in uniform_blocks(streams, n, u):
            obs = out[:, :ub.shape[1]]
            if state is None:  # each path's first uniform draws its initial state
                state = np.searchsorted(self._init_cum, ub[:, 0], side="right")
                obs[:, 0] = state
                ub, steps = ub[:, 1:], obs[:, 1:]
            else:
                steps = obs
            if len(cums) == 2:
                _two_state_steps(ub, steps, state, cums[0, 0], cums[1, 0])
                state = obs[:, -1].copy()
            else:
                for lane, (u_lane, lane_steps) in enumerate(zip(ub, steps)):
                    at, states = int(state[lane]), []
                    for ui in u_lane.tolist():
                        at = bisect_right(rows[at], ui)
                        states.append(at)
                    lane_steps[:] = states
                    state[lane] = at
            yield obs

    def prefix_pattern_law(self, n):
        law = {}
        for pattern in all_patterns(self.space, n):
            p = self.initial.atom_mass(pattern[0])
            for prev, cur in zip(pattern, pattern[1:]):
                p *= self.rows[prev].atom_mass(cur)
            law[pattern] = p
        return law

    def marginal(self) -> ProbMeasure:
        return self.initial

    def spec_label(self) -> str:
        return "markov-control"


# ---------------------------------------------------------------------------
# the spec operations

def _exact_law(gen: ProcessGenerator, n: int, work: Callable, law: Callable | None = None) -> tuple[int, dict]:
    """The one gate of the exact oracles: the generator's cell count k and
    its pattern law at length n, ``law(n)`` when given. The space must be
    finite, n >= 1, the enumeration ``work(k)`` (its name, its factors)
    within :func:`ensure_oracle_work`'s cap, and every probability rational,
    as float laws differ in their last bits; one check per distinct type."""
    k = gen.space.num_cells
    if k is None:
        raise ValueError("exact prefix law requires a finite state space")
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    ensure_oracle_work(*work(k))
    values = (law or gen.prefix_pattern_law)(n)
    if not all(issubclass(t, Rational) for t in set(map(type, values.values()))):
        raise ValueError("exact oracles require rational generator parameters")
    return k, values


def ensure_oracle_work(what: str, factors: Iterable[int]) -> None:
    """Refuse an enumeration whose size, the product of ``factors``, exceeds
    the oracle cap; one factor at a time, so a huge n stops within a few."""
    work = 1
    for f in factors:
        work *= f
        if work > _ORACLE_WORK_CAP:
            raise ValueError(f"{what} exceed the oracle cap {_ORACLE_WORK_CAP}")


def prefix_law(gen: ProcessGenerator, n: int) -> ProbMeasure:
    """Exact joint law of the first n coordinates, as a measure on the
    n-fold product space, finite(k**n) (rational arithmetic). A pattern's
    cell is its digits read base k, the first coordinate most significant."""
    k, pat_law = _exact_law(gen, n, lambda k: (f"n*k**n pattern entries for n={n}, k={k}", chain([n], repeat(k, n))))
    weights = {}
    for pattern, p in pat_law.items():
        cell = 0
        for x in pattern:
            cell = cell * k + x
        weights[cell] = p
    return ProbMeasure(finite(k**n), weights)


@dataclass(frozen=True)
class ExchangeabilityResult(Record):
    exchangeable: bool
    worst_permutation: tuple[int, ...] | None
    max_discrepancy: Fraction


def check_exchangeable(gen: ProcessGenerator, n: int) -> ExchangeabilityResult:
    """Brute-force invariance of the exact n-law under all n! permutations."""
    _, law = _exact_law(
        gen, n, lambda k: (f"n!*k**n (permutation, pattern) steps for n={n}, k={k}", (i * k for i in range(1, n + 1)))
    )
    worst = None
    max_disc = Fraction(0)
    for sigma in permutations(range(n)):
        for pattern, p in law.items():
            permuted = tuple(pattern[sigma[i]] for i in range(n))
            d = abs(p - law[permuted])
            if d > max_disc:
                max_disc = d
                worst = sigma
    return ExchangeabilityResult(max_disc == 0, worst, max_disc)


def polya_beta_equivalence(a, b, n: int) -> tuple[bool, Fraction]:
    """Compare the urn's sequential walk with the pattern law of the mixing
    law it declares, Beta(a, b), by the Beta-Binomial formula: two
    independent routes, both exact rationals, equality required."""
    urn = PolyaUrnProcess(a, b)
    _, walk = _exact_law(urn, n, lambda k: (f"2**n urn patterns for n={n}", repeat(2, n)))
    mixed = urn.mixing().pattern_law(n)
    max_disc = max(abs(p - mixed[pattern]) for pattern, p in walk.items())
    return max_disc == 0, max_disc
