"""Exchangeable sequence generators and exact prefix-law oracles.

A generator produces finite paths deterministically from a counter-based
stream keyed by (master seed, path index). On finite state spaces and small n
it also exposes the exact joint law of the first n coordinates in rational
arithmetic; that law is the brute-force oracle behind the exchangeability
check and the mixture-identity checks.

Generator variants:

* ``IIDProcess``            -- iid draws from a base measure.
* ``GridMixtureProcess``    -- latent parameter from a finite prior grid, then
  iid draws from a component kernel (conditionally iid by construction).
* ``BetaBernoulliProcess``  -- Beta(a, b) latent success probability, then iid
  coin flips; the realized latent is continuous and stored on the path.
* ``PolyaUrnProcess``       -- two-color urn with reinforcement; exchangeable
  with no realized latent at sampling time.
* ``MarkovChainProcess``    -- a deliberately non-exchangeable control.

``latent_kernel()`` is the one declaration of a generator's directing kernel,
the map from a path's ``latent`` to the conditional law of its coordinates
(iid: constant at the base measure; urn and control: None). Every kernel
target, kernel verdict and conditionally-iid precondition asks it.

Every exact oracle counts the entries it would enumerate before it starts,
factor by factor so that a huge n is refused within a few factors, and raises
``ValueError`` naming the oracle cap above ``_ORACLE_WORK_CAP`` (10**8):
``check_exchangeable`` n!*k**n (permutation, pattern) steps, ``prefix_law``
n*k**n pattern entries (the n keeps counting on a one-cell space),
``polya_beta_equivalence`` 2**n urn patterns, and in ``empirical``
``df_product_identity_exact`` k**n*n**m (pattern, index tuple) steps and
``SymmetricPrefixCondition`` k**m*m predicate calls.

Every generator draws its path in blocks of at most ``_DRAW_BLOCK`` (2**16,
in ``rng``) draws (``ProcessGenerator._blocks``): each block's uniforms are
read into one reused buffer and its draws written into another, and the
sequential samplers carry the urn's counts or the chain's state from block to
block. The blocks read the uniforms of one ``stream.random(n)`` in order, so
they are the whole path's draws bit for bit. A Monte Carlo check counts each
block as it is drawn (``sample_blocks``); ``sample_path`` joins the blocks
into the one path-length array, for ``simulate`` and the tests.

The two sequential samplers return the observations of a per-step loop bit
for bit. Within a draw block, the Polya and two-state samplers step in
smaller blocks of numpy operations, and no temporary is longer than such a
block:

* Markov: every state reads the step's uniform, so a step is a map from each
  state to the next (the grand coupling), and a step whose map is constant
  fixes the state whatever came before: the chains coalesce (Propp & Wilson
  1996). With two states, every chain the CLI builds, a step compares its
  uniform with each row's one inner boundary, and a step that does not fix
  the state is the identity or the swap. So the state is the last fixed state
  xor the parity of the swaps since, one running sum per block of
  ``_MARKOV_BLOCK_CELLS`` / 2 steps (``_two_state_steps``). With k > 2 states
  the chain steps one draw at a time, bisecting its row's cumulative list.
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
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, permutations, product, repeat
from typing import Iterable

import numpy as np

from .kernels import MarkovKernel, bernoulli_kernel, constant_kernel
from .measures import ProbMeasure, mix_measures
from .rng import block_buffers, path_stream, skip_uniforms, uniform_blocks
from .spaces import Record, SpaceDescriptor, finite

# entries that one exact oracle may enumerate
_ORACLE_WORK_CAP = 10**8
# Sequential samplers. The urn size that the Polya draws are looped to, then
# the most draws per Polya block: a block's cost is a few comparisons per draw
# plus passes over the draws that its screen leaves open.
_POLYA_WARMUP_BALLS = 256
_POLYA_BLOCK = 8192
# (step, state) entries per Markov block: 8192 steps of a two-state chain,
# each scratch array of a block 64 KB or less
_MARKOV_BLOCK_CELLS = 16384


# ---------------------------------------------------------------------------
# patterns

def all_patterns(space: SpaceDescriptor, n: int):
    return product(range(space.num_cells), repeat=n)


def _mixture_pattern_law(space: SpaceDescriptor, parts, n: int) -> dict:
    """sum_i w_i * prod_t mu_i(x_t) for every pattern x in ``all_patterns``
    order, over ``parts`` = ((w_i, mu_i), ...); 0 everywhere when empty."""
    tables = [(Fraction(w), [mu.atom_mass(j) for j in range(space.num_cells)]) for w, mu in parts]
    law = {}
    for pattern in all_patterns(space, n):
        p = Fraction(0)
        for w, atoms in tables:
            term = w
            for x in pattern:
                term *= atoms[x]
            p += term
        law[pattern] = p
    return law


# ---------------------------------------------------------------------------
# sampling from a measure

def sample_from_measure(mu: ProbMeasure, stream: np.random.Generator, n: int) -> np.ndarray:
    """Draw n iid cells from a measure using the given stream, as one array
    (the blocks of :func:`_measure_blocks`)."""
    return _concatenated(_measure_blocks(mu, stream, n, *block_buffers(n)), n)


def _measure_blocks(mu: ProbMeasure, stream: np.random.Generator, n: int, u: np.ndarray, out: np.ndarray):
    """n iid cells of a measure, as blocks of up to ``len(u)`` draws written
    to ``out``, from the uniforms that :func:`uniform_blocks` reads into ``u``.

    Finitely supported measures consume one uniform per draw; measures with
    geometric components consume two runs of n uniforms, u1 for the branch
    (the finite part, then each component) and u2 for the cell within it (a
    ``searchsorted`` on the finite part, the inverse cdf on a component).
    All of u1 is read before u2: with several live branches a copy of the
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
        for ub in uniform_blocks(stream, n, u):
            yield np.take(cells, np.searchsorted(cum, ub, side="right"), out=out[:len(ub)])
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
        skip_uniforms(stream, n)
        for u2 in uniform_blocks(stream, n, u):
            fill(first, u2, out[:len(u2)], ...)
            yield out[:len(u2)]
        return
    cell_stream = copy.deepcopy(stream)
    skip_uniforms(cell_stream, n)
    for u1, u2 in zip(uniform_blocks(stream, n, np.empty_like(u)), uniform_blocks(cell_stream, n, u)):
        obs = out[:len(u2)]
        branch = np.searchsorted(branch_cum, u1, side="right")
        for b in range(len(branch_cum)):
            mask = branch == b
            if mask.any():
                fill(b, u2, obs, mask)
        yield obs
    stream.bit_generator.state = cell_stream.bit_generator.state


def _concatenated(blocks, n: int) -> np.ndarray:
    """The n draws that ``blocks`` yields, in order, as one int64 array."""
    obs = np.empty(n, dtype=np.int64)
    start = 0
    for block in blocks:
        obs[start:start + len(block)] = block
        start += len(block)
    return obs


def _least_ones(u, balls):
    """The least count t of ones with fl(t / balls) > u, elementwise: an urn of
    ``balls`` balls, an integer below 2**53, draws a one on the uniform u iff
    it holds t ones or more. fl(u * balls) lies within one of u * balls, so t
    is its floor plus 0, 1 or 2. The comparisons are written as floats, as
    ``_urn_blocks`` holds no bool array of the open draws."""
    t = np.floor(u * balls)
    step = np.empty_like(t)
    for _ in range(2):
        t += np.less_equal(np.divide(t, balls, out=step), u, out=step)
    return t


def _two_state_steps(u, out, state, b0, b1):
    """Fill out[i] with the state of a two-state chain after step i from
    ``state``: step i moves to state 1 iff u[i] >= b_s, the inner boundary of
    the row of the state s it leaves.

    Over GF(2) a step maps s to g0 + (g0 + g1) s, with g_s = [u[i] >= b_s].
    Where g0 = g1 it is constant: the step fixes the state whatever came
    before (the chains coalesce). Elsewhere it is the identity (g0 = 0) or the
    swap (g0 = 1). So, with B the running sum of g0 and f <= i the last step
    that fixes the state, the state after step i is B[i] - B[f - 1] mod 2.
    Each block of ``_MARKOV_BLOCK_CELLS`` / 2 steps prepends its carried state
    as a fixing step, and B[f - 1] is the running maximum of B[i - 1] over the
    fixing steps i, as B never falls.
    """
    n = len(u)
    block = _MARKOV_BLOCK_CELLS // 2
    m_max = min(block, n)
    g0, g1, fixes = (np.empty(m_max + 1, dtype=bool) for _ in range(3))
    sums, floor = np.empty(m_max + 1, dtype=np.int64), np.empty(m_max + 1, dtype=np.int64)
    fixes[0] = True
    floor[0] = 0
    for start in range(0, n, block):
        ub = u[start:start + block]
        m = len(ub)
        g0[0] = out[start - 1] if start else state
        np.greater_equal(ub, b0, out=g0[1:m + 1])
        np.greater_equal(ub, b1, out=g1[1:m + 1])
        np.equal(g0[1:m + 1], g1[1:m + 1], out=fixes[1:m + 1])
        np.cumsum(g0[:m + 1], out=sums[:m + 1])
        np.multiply(fixes[1:m + 1], sums[:m], out=floor[1:m + 1])
        np.maximum.accumulate(floor[:m + 1], out=floor[:m + 1])
        steps = out[start:start + m]
        np.subtract(sums[1:m + 1], floor[1:m + 1], out=steps)
        np.bitwise_and(steps, 1, out=steps)


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
    """Base class; subclasses fill in sampling and the exact prefix law."""

    space: SpaceDescriptor
    exchangeable: bool

    def sample_path(self, n: int, master_seed: int, path_index: int = 0) -> PathSample:
        if n < 1:
            raise ValueError("path length must be >= 1")
        # The stream is held until the path is built, and the path is a copy
        # allocated after the buffers: a stream freed as its blocks end, or a
        # short path's draw buffer as the path, raised the peak RSS of a run
        # of many short paths by about 2 MB and up to 5 MB (heap placement).
        stream = path_stream(master_seed, path_index)
        latent, blocks = self._blocks(stream, n, *block_buffers(n))
        return PathSample(self, (master_seed, path_index), latent, _concatenated(blocks, n))

    def sample_blocks(self, n: int, master_seed: int, path_index: int = 0):
        """The path of :meth:`sample_path` as (latent, blocks): the blocks of
        :meth:`_blocks`, drawn as they are iterated, through buffers of
        :func:`block_buffers` that the path allocates."""
        if n < 1:
            raise ValueError("path length must be >= 1")
        return self._blocks(path_stream(master_seed, path_index), n, *block_buffers(n))

    def _blocks(self, stream: np.random.Generator, n: int, u: np.ndarray, out: np.ndarray):
        """(latent, blocks): the latent is drawn first, then the n draws as
        an iterator over consecutive blocks of up to ``len(u)`` draws, each a
        view of ``out`` that the next block overwrites. The uniforms are read
        into ``u`` by :func:`uniform_blocks`, in the order of one
        ``stream.random(n)``."""
        raise NotImplementedError

    def prefix_pattern_law(self, n: int) -> dict[tuple[int, ...], Fraction]:
        raise NotImplementedError

    def marginal(self) -> ProbMeasure:
        """Exact law of a single coordinate."""
        raise NotImplementedError

    def latent_kernel(self) -> MarkovKernel | None:
        """Kernel mapping a path's latent to the conditional law of its
        coordinates; None when the generator declares no directing kernel."""
        return None

    def spec_label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class IIDProcess(ProcessGenerator):
    base: ProbMeasure

    exchangeable = True

    @property
    def space(self) -> SpaceDescriptor:
        return self.base.space

    def _blocks(self, stream, n, u, out):
        return None, _measure_blocks(self.base, stream, n, u, out)

    def prefix_pattern_law(self, n):
        return _mixture_pattern_law(self.space, ((1, self.base),), n)

    def marginal(self) -> ProbMeasure:
        return self.base

    def latent_kernel(self) -> MarkovKernel | None:
        # Degenerate conditioning: the directing measure is the marginal.
        return constant_kernel(self.base)

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

    def _blocks(self, stream, n, u, out):
        idx = int(np.searchsorted(self._prior_cum, stream.random(), side="right"))
        return self.prior[idx][1], _measure_blocks(self.images[idx], stream, n, u, out)

    def _parts(self) -> list[tuple[object, ProbMeasure]]:
        return [(w, mu) for (w, _), mu in zip(self.prior, self.images)]

    def prefix_pattern_law(self, n):
        return _mixture_pattern_law(self.space, self._parts(), n)

    def marginal(self) -> ProbMeasure:
        return mix_measures(self._parts())

    def latent_kernel(self) -> MarkovKernel | None:
        return self.component

    def spec_label(self) -> str:
        pts = ",".join(str(t) for _, t in self.prior)
        return f"mixture(grid={pts})"


@dataclass(frozen=True)
class BetaBernoulliProcess(ProcessGenerator):
    """Beta(a, b) latent success probability, then iid coin flips.

    The exact prefix law is the Beta-Binomial pattern formula, available for
    integer a, b; sampling works for any positive shape parameters.
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

    def _blocks(self, stream, n, u, out):
        p = float(stream.beta(float(self.a), float(self.b)))
        return p, (np.less(ub, p, out=out[:len(ub)]) for ub in uniform_blocks(stream, n, u))

    def prefix_pattern_law(self, n):
        a, b = self.a, self.b
        if int(a) != a or int(b) != b:
            raise ValueError("exact Beta-Bernoulli law needs integer shapes")
        law = {}
        for pattern in all_patterns(self.space, n):
            k = sum(pattern)
            law[pattern] = beta_binomial_pattern_prob(int(a), int(b), n, k)
        return law

    def marginal(self) -> ProbMeasure:
        p = Fraction(self.a) / (Fraction(self.a) + Fraction(self.b))
        return ProbMeasure.bernoulli(self.space, p)

    def latent_kernel(self) -> MarkovKernel | None:
        return bernoulli_kernel(self.space)

    def spec_label(self) -> str:
        return f"mixture(beta({self.a},{self.b}))"


def beta_binomial_pattern_prob(a: int, b: int, n: int, k: int) -> Fraction:
    """P(one fixed binary pattern with k ones) = B(a+k, b+n-k) / B(a, b).

    Computed through factorials, independent of any urn recursion.
    """
    f = math.factorial
    num = f(a + k - 1) * f(b + n - k - 1) * f(a + b - 1)
    den = f(a + b + n - 1) * f(a - 1) * f(b - 1)
    return Fraction(num, den)


@dataclass(frozen=True)
class PolyaUrnProcess(ProcessGenerator):
    """Two-color urn: draw a color, put it back with one extra of the same.

    ``a`` counts color 1, ``b`` color 0. Exchangeable; the directing measure
    only emerges as the limit of empirical frequencies, so paths carry no
    realized latent.
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

    def _blocks(self, stream, n, u, out):
        return None, self._urn_blocks(stream, n, u, out)

    def _urn_blocks(self, stream, n, u, out):
        ones, zeros = float(self.a), float(self.b)
        # warm-up: a nearly empty urn moves its ratio on every draw, so the
        # draws that fill it to _POLYA_WARMUP_BALLS balls are looped; so is
        # every draw of an urn whose counts are not integers below 2**53
        integral = ones.is_integer() and zeros.is_integer() and int(ones) + int(zeros) + n < 2**53
        warm = min(n, max(0, _POLYA_WARMUP_BALLS - int(ones + zeros))) if integral else n
        for u_block in uniform_blocks(stream, n, u):
            obs = out[:len(u_block)]
            start = min(warm, len(u_block))
            looped = []
            for ui in u_block[:start].tolist():
                if ui < ones / (ones + zeros):
                    ones += 1.0
                    looped.append(1)
                else:
                    zeros += 1.0
                    looped.append(0)
            obs[:start] = looped
            warm -= start
            # the solved blocks end at the draw block's end; the carried counts
            # are the loop's, so that edge changes no draw
            while start < len(u_block):
                # a block of at most 4x the balls in the urn, so its ratio drifts little
                balls = ones + zeros
                m = min(len(u_block) - start, _POLYA_BLOCK, int(4 * balls))
                ub = u_block[start:start + m]
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
            yield obs

    def prefix_pattern_law(self, n):
        a0, b0 = Fraction(self.a), Fraction(self.b)
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

    def marginal(self) -> ProbMeasure:
        p = Fraction(self.a) / (Fraction(self.a) + Fraction(self.b))
        return ProbMeasure.bernoulli(self.space, p)

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

    def _blocks(self, stream, n, u, out):
        return None, self._chain_blocks(stream, n, u, out)

    def _chain_blocks(self, stream, n, u, out):
        cums = self._row_cums
        # bisect_right makes searchsorted(side="right")'s comparison, c <= u
        rows = cums.tolist()
        state = None
        for ub in uniform_blocks(stream, n, u):
            obs = out[:len(ub)]
            if state is None:  # the path's first uniform draws the initial state
                state = int(np.searchsorted(self._init_cum, ub[0], side="right"))
                obs[0] = state
                ub, steps = ub[1:], obs[1:]
            else:
                steps = obs
            if len(cums) == 2:
                _two_state_steps(ub, steps, state, cums[0, 0], cums[1, 0])
                state = int(obs[-1])
            else:
                states = []
                for ui in ub.tolist():
                    state = bisect_right(rows[state], ui)
                    states.append(state)
                steps[:] = states
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

def ensure_oracle_domain(gen: ProcessGenerator, n: int) -> int:
    """The generator's cell count k, once its law is enumerable at length n."""
    k = gen.space.num_cells
    if k is None:
        raise ValueError("exact prefix law requires a finite state space")
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    return k


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
    k = ensure_oracle_domain(gen, n)
    ensure_oracle_work(f"n*k**n pattern entries for n={n}, k={k}", chain([n], repeat(k, n)))
    pat_law = gen.prefix_pattern_law(n)
    if any(not isinstance(p, Fraction) for p in pat_law.values()):
        raise ValueError("prefix law requires exact-rational generator parameters")
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
    k = ensure_oracle_domain(gen, n)
    ensure_oracle_work(
        f"n!*k**n (permutation, pattern) steps for n={n}, k={k}", (i * k for i in range(1, n + 1))
    )
    law = gen.prefix_pattern_law(n)
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


def polya_beta_equivalence(a: int, b: int, n: int) -> tuple[bool, Fraction]:
    """Compare the urn's enumerated prefix law against the Beta-Binomial
    pattern formula; both sides exact rationals, equality required."""
    if int(a) != a or int(b) != b:
        raise ValueError("equivalence oracle needs integer urn counts")
    urn = PolyaUrnProcess(a, b)
    ensure_oracle_domain(urn, n)
    ensure_oracle_work(f"2**n urn patterns for n={n}", repeat(2, n))
    urn_law = urn.prefix_pattern_law(n)
    max_disc = Fraction(0)
    for pattern, p in urn_law.items():
        q = beta_binomial_pattern_prob(int(a), int(b), n, sum(pattern))
        max_disc = max(max_disc, abs(p - q))
    return max_disc == 0, max_disc
