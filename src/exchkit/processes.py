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

The two sequential samplers read the same ``stream.random(n)`` uniforms as a
per-step loop and return the same observations bit for bit, but step through
a path in blocks of numpy operations, one path at a time:

* Markov: each step is a map from every state to the next one (one
  ``searchsorted`` per transition row). Its prefixes are composed by doubling,
  a Hillis-Steele scan, so row i of the block maps the carried state to the
  state after step i. A block holds at most min(n, ``_MARKOV_BLOCK_CELLS``)
  (step, state) entries, or one step's k when k is larger. The work per step
  grows with k: past a few dozen states the scan is slower than a loop.
* Polya: while the urn holds fewer than ``_POLYA_WARMUP_BALLS`` (256) balls,
  its ratio moves on every draw, so those draws run as the loop itself. Then
  the path is solved in blocks of min(``_POLYA_BLOCK``, 4 x the balls in the
  urn) draws, which bounds how far the ratio drifts inside a block; the rule
  follows the urn's size, not the workload. A block's draws are guessed from
  its opening ratio, then every draw j is recomputed as ``u[j] < o/(o+z)``
  with the counts the guess implies. Draw j depends only on the draws before
  it, so every draw up to and including the first one that changed is exact;
  those are committed and the rest is solved again. The counts come from
  ``np.cumsum`` over ``[count, 1.0, 1.0, ...]``, which adds in sequence as the
  loop's ``+= 1.0`` does, and each draw is the loop's comparison on the
  loop's carried counts, so block edges cannot change a draw and non-integer
  counts round alike. Each pass costs the rest of the block. On
  ``path_stream`` draws of Polya(1,1) at 10**4 draws (40 paths) a path takes
  254 looped draws and about 11 passes over 25k elements, against 18 passes
  over 114k for 8192-draw blocks from the first draw; uniforms placed on the
  thresholds need up to one pass per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, permutations, product, repeat
from typing import Iterable, Sequence

import numpy as np

from .kernels import MarkovKernel, bernoulli_kernel, constant_kernel
from .measures import ProbMeasure, mix_measures
from .rng import path_stream, skip_uniforms
from .spaces import SpaceDescriptor, finite

# entries that one exact oracle may enumerate
_ORACLE_WORK_CAP = 10**8
# sequential samplers: the urn size the Polya draws are looped to, then draws
# per Polya block and (step, state) entries per Markov block
_POLYA_WARMUP_BALLS = 256
_POLYA_BLOCK = 8192
_MARKOV_BLOCK_CELLS = 16384


# ---------------------------------------------------------------------------
# product-space pattern encoding

def product_space(space: SpaceDescriptor, n: int) -> SpaceDescriptor:
    """The n-fold product of a finite space, cells encoded base-k big-endian."""
    k = space.num_cells
    if k is None:
        raise ValueError("product space requires a finite base space")
    return finite(k**n)


def encode_pattern(space: SpaceDescriptor, pattern: Sequence[int]) -> int:
    k = space.num_cells
    idx = 0
    for x in pattern:
        idx = idx * k + x
    return idx


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
    """Draw n iid cells from a measure using the given stream.

    Finitely supported measures consume one uniform per draw; measures with
    geometric components consume two blocks of n uniforms, u1 for the branch
    (the finite part, then each component) and u2 for the cell within it (a
    ``searchsorted`` on the finite part, the inverse cdf on a component).
    When the cumulative branch weights reach 1.0 at the first branch of
    positive weight (a single live branch, as in every ``geometric_kernel``
    image), every u1 in [0, 1) selects that branch. Then u1 is not generated:
    :func:`skip_uniforms` moves the stream past it by counter arithmetic, so
    the stream ends where it would have, and the cells are computed in place
    in u2.
    """
    finite_weights = mu.weights_dict()
    cells = np.array(sorted(finite_weights), dtype=np.int64)
    probs = np.array([float(finite_weights[j]) for j in cells])
    comps = mu._components

    if not comps:
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        u = stream.random(n)
        return cells[np.searchsorted(cum, u, side="right")]

    branch_probs = np.concatenate([[probs.sum()], [float(c.weight) for c in comps]])
    branch_cum = np.cumsum(branch_probs)
    branch_cum[-1] = 1.0
    first = int(np.searchsorted(branch_cum, 0.0, side="right"))
    single = branch_cum[first] >= 1.0
    if single:
        skip_uniforms(stream, n)
    else:
        u1 = stream.random(n)
    u2 = stream.random(n)
    out = np.empty(n, dtype=np.int64)

    def fill(b, where):
        """The cells of branch b at ``where``: a mask, or ... for all draws."""
        u = u2[where]  # a copy under a mask, u2 itself under ...
        if b == 0:
            if probs.sum() <= 0:
                raise ValueError("branch selected an empty finite part")
            cum = np.cumsum(probs / probs.sum())
            cum[-1] = 1.0
            out[where] = cells[np.searchsorted(cum, u, side="right")]
        elif (q := float(comps[b - 1].ratio)) >= 1.0:
            out[where] = 0
        else:
            np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
            np.log(u, out=u)
            u /= math.log1p(-q)
            out[where] = np.floor(u, out=u)

    if single:
        fill(first, ...)
        return out
    branch = np.searchsorted(branch_cum, u1, side="right")
    for b in range(len(branch_cum)):
        mask = branch == b
        if mask.any():
            fill(b, mask)
    return out


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
        stream = path_stream(master_seed, path_index)
        latent, obs = self._draw(stream, n)
        return PathSample(self, (master_seed, path_index), latent, obs)

    def _draw(self, stream: np.random.Generator, n: int):
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

    def _draw(self, stream, n):
        return None, sample_from_measure(self.base, stream, n)

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

    # the component's image at each prior parameter, built once
    images: tuple[ProbMeasure, ...] = field(init=False, compare=False, repr=False)

    exchangeable = True

    def __post_init__(self) -> None:
        total = sum(w for w, _ in self.prior)
        if total != 1:
            raise ValueError(f"prior weights sum to {total}, not 1")
        if any(w < 0 for w, _ in self.prior):
            raise ValueError("prior weights must be non-negative")
        # MarkovKernel.measure validates each image
        object.__setattr__(self, "images", tuple(self.component.measure(theta) for _, theta in self.prior))

    @property
    def space(self) -> SpaceDescriptor:
        return self.component.target

    def _draw(self, stream, n):
        cum = np.cumsum([float(w) for w, _ in self.prior])
        cum[-1] = 1.0
        idx = int(np.searchsorted(cum, stream.random(), side="right"))
        return self.prior[idx][1], sample_from_measure(self.images[idx], stream, n)

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

    def _draw(self, stream, n):
        p = float(stream.beta(float(self.a), float(self.b)))
        obs = (stream.random(n) < p).astype(np.int64)
        return p, obs

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

    def _draw(self, stream, n):
        u = stream.random(n)
        ones = float(self.a)
        zeros = float(self.b)
        obs = np.empty(n, dtype=np.int64)
        # warm-up: a nearly empty urn moves its ratio on every draw, so the
        # draws that fill it to _POLYA_WARMUP_BALLS balls are looped
        start = min(n, max(0, math.ceil(_POLYA_WARMUP_BALLS - (self.a + self.b))))
        warm = []
        for ui in u[:start].tolist():
            if ui < ones / (ones + zeros):
                ones += 1.0
                warm.append(1)
            else:
                zeros += 1.0
                warm.append(0)
        obs[:start] = warm
        cap = min(n - start, _POLYA_BLOCK)
        # Scratch for the whole path, written with out=: allocating in every
        # pass fragmented the heap around the path-sized arrays and raised the
        # peak RSS of later long paths by about 6 MB.
        fill = np.ones(cap + 1)
        o, z = np.empty(cap + 1), np.empty(cap + 1)
        o_buf, z_buf = np.empty(cap), np.empty(cap)
        ones_buf, zeros_buf = np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64)
        x, y_buf, changed_buf = (np.empty(cap, dtype=bool) for _ in range(3))
        steps = np.arange(cap)
        while start < n:
            # a block of at most 4x the balls in the urn, so its ratio drifts little
            m = min(n - start, cap, int(4 * (ones + zeros)))
            ub = u[start:start + m]
            # o[j], z[j]: the counts after j more balls of that color
            fill[0] = ones
            np.cumsum(fill[:m + 1], out=o[:m + 1])
            fill[0] = zeros
            np.cumsum(fill[:m + 1], out=z[:m + 1])
            np.less(ub, ones / (ones + zeros), out=x[:m])  # guess: every draw at the opening ratio
            done = ones_done = 0
            while done < m:
                r = m - done
                guess = x[done:m]
                ones_before, zeros_before = ones_buf[:r], zeros_buf[:r]  # in the block, before each draw
                oj, zj, y, changed = o_buf[:r], z_buf[:r], y_buf[:r], changed_buf[:r]
                np.cumsum(guess, out=ones_before)
                ones_before -= guess
                ones_before += ones_done
                np.subtract(steps[done:m], ones_before, out=zeros_before)
                np.take(o, ones_before, out=oj, mode="clip")  # in range; "clip" writes out= unbuffered
                np.take(z, zeros_before, out=zj, mode="clip")
                np.add(oj, zj, out=zj)
                np.divide(oj, zj, out=oj)
                np.less(ub[done:m], oj, out=y)
                np.not_equal(y, guess, out=changed)
                first = int(changed.argmax())
                end = first + 1 if changed[first] else r
                ones_done += int(np.count_nonzero(y[:end]))
                done += end
                guess[:] = y  # y[:end] is exact; the rest is the next guess
            obs[start:start + m] = x[:m]
            ones = o[ones_done]
            zeros = z[m - ones_done]
            start += m
        return None, obs

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

    exchangeable = False

    def __post_init__(self) -> None:
        k = self.initial.space.num_cells
        if k is None or len(self.rows) != k:
            raise ValueError("need one transition row per state of a finite space")
        for row in self.rows:
            if row.space != self.initial.space:
                raise ValueError("transition rows on wrong space")

    @property
    def space(self) -> SpaceDescriptor:
        return self.initial.space

    def _draw(self, stream, n):
        u = stream.random(n)
        k = self.space.num_cells
        cums = []
        for row in self.rows:
            c = np.cumsum([float(row.atom_mass(j)) for j in range(k)])
            c[-1] = 1.0
            cums.append(c)
        init_cum = np.cumsum([float(self.initial.atom_mass(j)) for j in range(k)])
        init_cum[-1] = 1.0
        obs = np.empty(n, dtype=np.int64)
        state = int(np.searchsorted(init_cum, u[0], side="right"))
        obs[0] = state
        block = max(1, min(n, _MARKOV_BLOCK_CELLS) // k)
        for start in range(1, n, block):
            ub = u[start:start + block]
            # g[i, s]: the state after step i of the block, from state s before step i
            g = np.empty((len(ub), k), dtype=np.int64)
            for s, c in enumerate(cums):
                g[:, s] = np.searchsorted(c, ub, side="right")
            d = 1
            while d < len(g):  # compose prefixes: g[i] becomes steps 0..i in turn
                g[d:] = np.take_along_axis(g[d:], g[:-d], axis=1)
                d *= 2
            obs[start:start + len(ub)] = g[:, state]
            state = int(g[-1, state])
        return None, obs

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
    n-fold product space (rational arithmetic)."""
    k = ensure_oracle_domain(gen, n)
    ensure_oracle_work(f"n*k**n pattern entries for n={n}, k={k}", chain([n], repeat(k, n)))
    pat_law = gen.prefix_pattern_law(n)
    if any(not isinstance(p, Fraction) for p in pat_law.values()):
        raise ValueError("prefix law requires exact-rational generator parameters")
    prod = product_space(gen.space, n)
    weights = {encode_pattern(gen.space, pat): p for pat, p in pat_law.items()}
    return ProbMeasure(prod, weights)


@dataclass(frozen=True)
class ExchangeabilityResult:
    exchangeable: bool
    worst_permutation: tuple[int, ...] | None
    max_discrepancy: Fraction

    def to_dict(self) -> dict:
        return {
            "exchangeable": self.exchangeable,
            "worst_permutation": list(self.worst_permutation) if self.worst_permutation else None,
            "max_discrepancy": str(self.max_discrepancy),
        }


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
