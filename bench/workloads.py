"""The four benchmark workloads: inputs drawn from a seed, checks, verdicts.

A *check* is one public-API or CLI call that returns a verdict. Each check
carries a judge that inspects the output right after the call (outside the
timed region) and returns whether the output is valid plus a canonical text
of it for the output digest.

An output is invalid when it contradicts theory where theory fixes it (an
exact discrepancy that must be 0, a product-moment lhs with a closed form, a
CLI exit code of 2 or more, a row count), or, at seed 0, when it differs from
the pinned acceptance numbers. A seeded Monte Carlo check that returns FAIL is
a valid output.

Seed semantics: seed 0 reproduces the pinned configs and master seeds of the
acceptance suite and the README examples. ``exact-oracles`` redraws urn
counts, coin biases and weights from other seeds while keeping every
(k, n) size fixed, so the enumerated work is the same on every seed; the
other workloads shift their master seeds by the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import numpy as np
from click.testing import CliRunner

from exchkit import cli, convergence as cv, empirical as em, kernels as kn, measures as ms
from exchkit import processes as px
from exchkit.spaces import EventSet, countable, finite

B2 = finite(2)
NN = countable()
ONES = EventSet.of(B2, [1])
ZEROS = EventSet.of(B2, [0])
VOLATILE = ('"timestamp"', '"wall_clock_s"')


@dataclass(frozen=True)
class Check:
    name: str
    call: Callable[[], object]
    judge: Callable[[object], tuple[bool, str]]
    is_cli: bool = False


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# CLI checks, run in-process; reports land in the run's scratch directory


def cli_error(result) -> bool:
    """A CLI call that crashed or exited with a spec, config or I/O error."""
    crashed = result.exception is not None and not isinstance(result.exception, SystemExit)
    return crashed or result.exit_code >= 2


class CliCall:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.runner = CliRunner()

    def check(self, name: str, args: list[str], ok_codes: tuple[int, ...], verify=None) -> Check:
        """A CLI check; ``verify(report, bodies)`` checks what theory fixes in
        the parsed JSON report and the raw report files."""
        command = args[0]

        def call():
            return self.runner.invoke(cli.main, args, env={"EXCHKIT_OUT_DIR": self.out_dir})

        def judge(result):
            if cli_error(result):
                return False, f"exit {result.exit_code}: {result.exception!r}"
            bodies = {}
            for ext in ("json", "csv"):
                path = os.path.join(self.out_dir, f"{command}.{ext}")
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as fh:
                        bodies[ext] = fh.read()
                    os.unlink(path)
            if "json" not in bodies:
                return False, "no report written"
            report = json.loads(bodies["json"])
            stable = [line for line in bodies["json"].splitlines() if not any(v in line for v in VOLATILE)]
            ok = result.exit_code in ok_codes and (verify is None or verify(report, bodies))
            return ok, "\n".join([f"exit {result.exit_code}", *stable, bodies.get("csv", "")])

        return Check(name, call, judge, is_cli=True)


# ---------------------------------------------------------------------------
# exact-oracles: Fraction enumeration of n!*k^n and k^n, nothing sampled


def _beta_binomial_moment(a: int, b: int, n: int, m: int) -> F:
    """E[(S/n)^m] for S ~ BetaBinomial(n, a, b), from Beta-function ratios."""
    f = math.factorial

    def beta(x, y):
        return F(f(x - 1) * f(y - 1), f(x + y - 1))

    return sum(
        (math.comb(n, s) * beta(a + s, b + n - s) / beta(a, b) * F(s, n) ** m for s in range(n + 1)),
        F(0),
    )


def _binomial_moment(theta: F, n: int, m: int) -> F:
    """E[(S/n)^m] for S ~ Binomial(n, theta)."""
    return sum(
        (math.comb(n, s) * theta**s * (1 - theta) ** (n - s) * F(s, n) ** m for s in range(n + 1)),
        F(0),
    )


def exact_oracles(seed: int, tiny: bool, out_dir: str) -> list[Check]:
    n2, n3, n_df = (3, 3, 3) if tiny else (6, 5, 6)
    if seed == 0:
        urns = [(a, b) for a in range(1, 5) for b in range(1, 5)]
        p_coin = F(1, 3)
        grid = ((F(1, 2), F(1, 4)), (F(1, 2), F(3, 4)))
        w3 = (F(1, 3), F(1, 3), F(1, 3))
        p01, p10 = F(3, 4), F(3, 4)
        df_urn, big_urn = (1, 1), (2, 1)
    else:
        rng = random.Random(seed)
        urns = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(16)]
        p_coin = F(rng.randint(1, 9), 10)
        t1, t2 = sorted(rng.sample(range(1, 10), 2))
        w = F(rng.randint(1, 4), 5)
        grid = ((w, F(t1, 10)), (1 - w, F(t2, 10)))
        cut = sorted(rng.sample(range(1, 6), 2))
        w3 = (F(cut[0], 6), F(cut[1] - cut[0], 6), F(6 - cut[1], 6))
        p01, p10 = F(rng.randint(1, 9), 10), F(rng.randint(1, 9), 10)
        df_urn, big_urn = urns[0], urns[1]
    if tiny:
        urns = urns[:2]

    coin = px.IIDProcess(ms.ProbMeasure.bernoulli(B2, p_coin))
    mixture = px.GridMixtureProcess(grid, kn.bernoulli_kernel(B2))
    three = px.IIDProcess(ms.ProbMeasure.from_weights(finite(3), list(w3)))
    control = px.MarkovChainProcess(
        ms.ProbMeasure.delta(B2, 0),
        (ms.ProbMeasure.from_weights(B2, [1 - p01, p01]), ms.ProbMeasure.from_weights(B2, [p10, 1 - p10])),
    )

    def exchangeable(gen, n):
        def judge(res):
            return res.exchangeable and res.max_discrepancy == 0, _canon(res.to_dict())

        return Check(f"check_exchangeable {gen.spec_label()} n={n}", lambda: px.check_exchangeable(gen, n), judge)

    checks = [exchangeable(px.PolyaUrnProcess(a, b), n2) for a, b in urns]
    checks += [exchangeable(coin, n2), exchangeable(mixture, n2), exchangeable(three, n3)]

    # P(0,1) = p01 and P(1,0) = 0 for a chain started at 0, so the swap gives p01
    def control_judge(res):
        return (not res.exchangeable) and res.max_discrepancy == p01, _canon(res.to_dict())

    checks.append(Check("check_exchangeable markov n=2", lambda: px.check_exchangeable(control, 2), control_judge))

    def equivalence(a, b, n):
        return Check(
            f"polya_beta_equivalence {a},{b} n={n}",
            lambda: px.polya_beta_equivalence(a, b, n),
            lambda out: (out[0] and out[1] == 0, _canon(out)),
        )

    checks += [equivalence(a, b, n) for a, b in urns for n in range(1, n2 + 1)]

    def df_exact(gen, m, n, expected, conditioning=None):
        cyl = kn.CylinderEvent((ONES,) * m)

        def judge(r):
            ok = r.identity_holds and r.lhs == expected
            return ok, _canon([r.lhs, r.distinct_part, r.remainder, r.correction, r.conditioned_cylinder_prob])

        return Check(
            f"df_product_identity_exact {gen.spec_label()} m={m} n={n} {conditioning.label if conditioning else 'full'}",
            lambda: em.df_product_identity_exact(gen, cyl, n, conditioning),
            judge,
        )

    a, b = df_urn
    # at seed 0 these are the pinned acceptance values 5/12 and 7/18
    lhs2, lhs3 = _beta_binomial_moment(a, b, 2, 2), _beta_binomial_moment(a, b, 3, 2)
    if seed == 0 and (lhs2, lhs3) != (F(5, 12), F(7, 18)):
        raise AssertionError("closed-form moments disagree with the pinned acceptance values")
    checks.append(df_exact(px.PolyaUrnProcess(a, b), 2, 2, lhs2))
    checks.append(df_exact(px.PolyaUrnProcess(a, b), 2, 3, lhs3))
    checks.append(df_exact(px.PolyaUrnProcess(*big_urn), 3, n_df, _beta_binomial_moment(*big_urn, n_df, 3)))
    upper = grid[-1][1]
    latent = em.LatentCondition(lambda theta: theta >= upper)
    n_lat = n3
    checks.append(df_exact(mixture, 2, n_lat, grid[-1][0] * _binomial_moment(upper, n_lat, 2), latent))

    runner = CliCall(out_dir)
    ua, ub = urns[0] if seed else (2, 1)

    def verdict_is(flag):
        return lambda report, _bodies: report["results"]["exchangeable"] is flag

    checks.append(runner.check(
        "cli check-exchangeable polya",
        ["check-exchangeable", "--gen", f"polya:{ua},{ub}", "--n", str(n2)],
        (0,),
        verdict_is(True),
    ))
    checks.append(runner.check(
        "cli check-exchangeable markov",
        ["check-exchangeable", "--gen", f"markov:{p01},{p10}", "--n", "2"],
        (1,),
        verdict_is(False),
    ))
    return checks


# ---------------------------------------------------------------------------
# Monte Carlo workloads: the seed shifts every master seed


def _geom_mixture():
    return px.GridMixtureProcess(((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))), kn.geometric_kernel(NN))


def _markov_control():
    return px.MarkovChainProcess(
        ms.ProbMeasure.delta(B2, 0),
        (ms.ProbMeasure.from_weights(B2, [F(1, 4), F(3, 4)]), ms.ProbMeasure.from_weights(B2, [F(3, 4), F(1, 4)])),
    )


def _pinned(seed: int, tiny: bool, test: Callable[[], bool]) -> bool:
    """Pinned acceptance numbers hold only at seed 0 and full size."""
    return seed != 0 or tiny or test()


def mc_paths(seed: int, tiny: bool, out_dir: str) -> list[Check]:
    paths, n = (8, 500) if tiny else (400, 10_000)
    paths5, n5 = (20, 200) if tiny else (1000, 1000)
    paths6 = 10 if tiny else 200
    sim_n, sim_paths = (200, 5) if tiny else (10_000, 50)
    mix_paths = 10 if tiny else 100
    checks = []

    def band():
        gen = px.BetaBernoulliProcess(1, 1)
        inside = 0
        for i in range(paths):
            path = gen.sample_path(n, master_seed=0 + seed, path_index=i)
            freq = float(np.mean(np.asarray(path.observations) == 1))
            p = path.latent
            inside += abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n)
        return inside / paths

    checks.append(Check(
        "acceptance 03 beta band", band,
        lambda frac: (0 <= frac <= 1 and _pinned(seed, tiny, lambda: frac == 0.9975), repr(frac)),
    ))

    def ks():
        urn = px.PolyaUrnProcess(1, 1)
        finals = [
            float(np.mean(np.asarray(urn.sample_path(n, master_seed=2 + seed, path_index=i).observations) == 1))
            for i in range(paths)
        ]
        return em.ks_distance_uniform(finals)

    checks.append(Check(
        "acceptance 03 polya ks", ks,
        lambda d: (0 <= d <= 1 and _pinned(seed, tiny, lambda: f"{d:.4f}" == "0.0342"), repr(d)),
    ))

    coin = px.IIDProcess(ms.ProbMeasure.bernoulli(B2, F(1, 2)))
    checks.append(Check(
        "acceptance 04 monte carlo identity",
        lambda: em.df_product_identity_check(
            coin, kn.CylinderEvent((ONES, ZEROS)), n_grid=(10, 100, 1000), n_paths=paths, master_seed=3 + seed
        ),
        lambda rep: (_pinned(seed, tiny, lambda: rep.passed), _canon(rep.to_dict())),
    ))
    for label, gen in (
        ("iid", px.IIDProcess(ms.ProbMeasure.bernoulli(B2, F(1, 100)))),
        ("polya(1,99)", px.PolyaUrnProcess(1, 99)),
    ):
        checks.append(Check(
            f"acceptance 05 markov bound {label}",
            lambda gen=gen: cv.markov_bound_check(gen, ONES, F(1, 10), n_paths=paths5, n_steps=n5, master_seed=seed),
            lambda res: (0 <= res.violating_fraction <= 1 and _pinned(seed, tiny, lambda: res.passed),
                         _canon(res.to_dict())),
        ))
    tails = [EventSet.cofinite_of(NN, range(j)) for j in (2, 6, 12, 20)]
    checks.append(Check(
        "acceptance 06 uniform smallness",
        lambda: cv.uniform_smallness_check(
            _geom_mixture(), tails, eps_list=[F(1, 4), F(1, 16)], n_grid=(n // 100, n // 10, n),
            n_paths=paths6, master_seed=seed,
        ),
        lambda rep: (_pinned(seed, tiny, lambda: rep.passed), _canon(rep.to_dict())),
    ))

    runner = CliCall(out_dir)
    checks.append(runner.check(
        "cli verify-rcd geometric mixture",
        ["verify-rcd", "--gen", "mixture:grid(1/4,1/2):geom", "--events", "cells:0;cells:1,2;not:0",
         "--steps", str(n), "--paths", str(paths6), "--seed", str(seed)],
        (0, 1) if seed or tiny else (0,),
    ))
    checks.append(runner.check(
        "cli estimate-mixing readme",
        ["estimate-mixing", "--gen", "mixture:grid(1/4,3/4):bern", "--events", "cells:1",
         "--n-grid", "10,100,1000", "--paths", str(mix_paths), "--seed", str(3 + seed)],
        (0, 1) if seed or tiny else (0,),
    ))

    def rows_match(report, bodies):
        rows = sim_n * sim_paths
        return report["results"]["rows_written"] == rows and bodies["csv"].count("\n") == rows + 1

    checks.append(runner.check(
        "cli simulate polya",
        ["simulate", "--gen", "polya:2,1", "--n", str(sim_n), "--paths", str(sim_paths), "--seed", str(7 + seed)],
        (0,),
        rows_match,
    ))
    return checks


def long_paths(seed: int, tiny: bool, out_dir: str) -> list[Check]:
    top = 3 if tiny else 6
    grid = tuple(10**j for j in range(1, top + 1))
    steps = 2_000 if tiny else 200_000

    # With two paths per check, what a path draws sets the cost: a Polya step
    # that draws a one also writes to the path array, and np.isin's
    # temporaries grow with the count of ones. The Polya(1,1), Polya(2,1) and
    # Beta checks therefore keep master seed 0, so that the seed does not
    # change the work; it shifts the Markov-control and Polya(1,99) checks,
    # whose cost does not follow the draw.
    pinned = 0

    def traces_ok(rep):
        return all(0 <= v <= 1 for trace in rep.traces for v in trace)

    checks = [
        Check(
            "slln polya(1,1) long grid",
            lambda: em.slln_exchangeable_check(px.PolyaUrnProcess(1, 1), ONES, n_grid=grid, n_paths=2,
                                               master_seed=pinned),
            lambda rep: (traces_ok(rep) and rep.passed is None, _canon([rep.to_dict(), rep.traces])),
        ),
        Check(
            "markov bound markov control",
            lambda: cv.markov_bound_check(_markov_control(), ONES, F(1, 10), n_paths=2, n_steps=steps, master_seed=seed),
            lambda res: (0 <= res.violating_fraction <= 1, _canon(res.to_dict())),
        ),
        Check(
            "markov bound polya(1,99)",
            lambda: cv.markov_bound_check(px.PolyaUrnProcess(1, 99), ONES, F(1, 10), n_paths=4, n_steps=steps,
                                          master_seed=seed),
            lambda res: (0 <= res.violating_fraction <= 1, _canon(res.to_dict())),
        ),
    ]
    runner = CliCall(out_dir)
    checks.append(runner.check(
        "cli estimate-mixing polya long grid",
        ["estimate-mixing", "--gen", "polya:2,1", "--events", "cells:1",
         "--n-grid", ",".join(map(str, grid)), "--paths", "2", "--seed", str(pinned)],
        (0,),
    ))
    # the largest arrays of the workload: this check sets peak_rss_mb
    checks.append(runner.check(
        "cli verify-rcd beta long path",
        ["verify-rcd", "--gen", "mixture:beta(1,1):bern", "--events", "cells:1",
         "--steps", str(10 * steps), "--paths", "2", "--seed", str(pinned)],
        (0, 1),
    ))
    return checks


def rcd_pipeline(seed: int, tiny: bool, out_dir: str) -> list[Check]:
    paths = 10 if tiny else 200
    n_grid = (100, 1000, 4000, 6000, 8000, 10_000)
    events = [EventSet.of(NN, [0]), EventSet.of(NN, [1, 2]), EventSet.cofinite_of(NN, [0])]

    def construct():
        return cv.construct_rcd_from_empiricals(
            _geom_mixture(), events, n_grid=n_grid, n_paths=paths, master_seed=seed, coverage=0.95
        )

    def construct_judge(rep):
        valid = 0 <= rep.pass_fraction <= 1 and rep.marginal_regularity.radon
        pinned = _pinned(seed, tiny, lambda: rep.passed and f"{rep.pass_fraction:.2f}" == "0.98")
        return valid and pinned, _canon(rep.to_dict())

    checks = [Check("acceptance 09 construct rcd", construct, construct_judge)]
    runner = CliCall(out_dir)
    checks.append(runner.check(
        "cli construct-rcd readme",
        ["construct-rcd", "--gen", "mixture:grid(1/4,1/2):geom", "--events", "cells:0;cells:1,2;not:0",
         "--paths", str(paths), "--seed", str(seed)],
        (0, 1) if seed or tiny else (0,),
    ))
    # every finitely supported measure and the geometric law are Radon
    radon = lambda report, _bodies: report["results"]["radon"] is True  # noqa: E731
    for space, measure in (
        ("countable", "geometric:1/2"),
        ("finite:5", "uniform"),
        ("finite:7", "delta:3"),
        ("finite:2", "bern:1/3"),
        ("finite:3", "weights:1/5,1/5,3/5"),
    ):
        checks.append(runner.check(
            f"cli radon-classify {space} {measure}",
            ["radon-classify", "--space", space, "--measure", measure],
            (0,),
            radon,
        ))

    def settling_seq():
        def mu(k):
            return ms.ProbMeasure.from_weights(B2, [F(1, 2**k), 1 - F(1, 2**k)])

        return cv.MeasureSequence(B2, tuple(mu(k) for k in range(64)))

    settling = settling_seq()
    alternating = cv.MeasureSequence(B2, tuple(ms.ProbMeasure.delta(B2, k % 2) for k in range(12)))
    escaping = cv.MeasureSequence(NN, tuple(ms.ProbMeasure.delta(NN, 64 + k) for k in range(8)))

    def extract_judge(res):
        limit_ok = abs(float(ms.mass(res.limit, ONES)) - 1.0) <= 1e-9 and res.full_sequence
        return limit_ok, _canon([res.to_dict(), sorted(res.limit.weights_dict().items())])

    checks.append(Check(
        "acceptance 07 settling extraction",
        lambda: cv.extract_convergent_subsequence(settling, tol=1e-9),
        extract_judge,
    ))

    def escape():
        try:
            cv.extract_convergent_subsequence(escaping)
        except cv.NotTightError as exc:
            return str(exc)
        return None

    checks.append(Check(
        "acceptance 07 escaping deltas",
        escape,
        lambda msg: (msg is not None, _canon(msg)),
    ))

    def repass(seq):
        def call():
            r = cv.extract_convergent_subsequence(seq, tol=1e-9)
            sub = cv.MeasureSequence(seq.space, tuple(seq.measures[i] for i in r.indices))
            return r, cv.a_converges(sub, r.limit, cv.default_closed_family(seq.space), 1e-9)

        return call

    for label, seq in (("settling", settling), ("alternating", alternating)):
        checks.append(Check(
            f"acceptance 07 repass {label}",
            repass(seq),
            lambda out: (out[1][0], _canon([out[0].to_dict(), out[1][0]])),
        ))
    return checks


WORKLOADS = {
    "exact-oracles": exact_oracles,
    "mc-paths": mc_paths,
    "long-paths": long_paths,
    "rcd-pipeline": rcd_pipeline,
}
