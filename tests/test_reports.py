"""Report rendering: every check result reaches its report through
``spaces.report_value``, and each record's field order is its report's key
order."""

from fractions import Fraction as F

import pytest

from exchkit import (
    CylinderEvent,
    EventSet,
    IIDProcess,
    MeasureSequence,
    ProbMeasure,
    check_exchangeable,
    construct_rcd_from_empiricals,
    countable,
    df_product_identity_check,
    extract_convergent_subsequence,
    finite,
    markov_bound_check,
    parse_generator,
    uniform_smallness_check,
)
from exchkit.spaces import report_value

B2 = finite(2)
NN = countable()
ONES = EventSet.of(B2, [1])


def test_report_value_renders_each_kind():
    assert report_value(EventSet.cofinite_of(NN, [2, 0])) == "not:0,2"
    assert report_value(F(3, 4)) == "3/4"
    assert report_value(((1, None), [F(1, 2), ONES])) == [[1, None], ["1/2", "cells:1"]]
    assert report_value({"b": (ONES,), "a": F(2)}) == {"b": ["cells:1"], "a": "2"}
    for plain in (None, True, 3, 0.25, "full"):
        assert report_value(plain) is plain


# Each record's report as its own to_dict method wrote it, before the
# records shared Record.to_dict: the same values in the same key order.
RADON_TWO_CELLS = {
    "tight": True,
    "tight_witnesses": [{"eps": f"1/{2**k}", "segment_length": 2} for k in range(1, 11)],
    "outer_regular_on_compacts": True,
    "outer_regularity": "each default compact is open: every event is open in the discrete convention",
    "radon": True,
}

RECORDS = {
    "ExchangeabilityResult": (
        lambda: check_exchangeable(parse_generator("markov:3/4,1/4"), 2),
        {"exchangeable": False, "worst_permutation": [1, 0], "max_discrepancy": "3/4"},
    ),
    "MarkovBoundResult": (
        lambda: markov_bound_check(
            IIDProcess(ProbMeasure.bernoulli(B2, F(1, 10))), ONES, F(1, 2), n_paths=20, n_steps=50
        ),
        {"passed": True, "violating_fraction": 0.0, "bound": 0.8354101966249685, "marginal_mass": 0.1,
         "eps": 0.5, "n_paths": 20, "n_steps": 50},
    ),
    "UniformSmallnessReport": (
        lambda: uniform_smallness_check(
            IIDProcess(ProbMeasure.geometric(NN, F(1, 2))),
            [EventSet.cofinite_of(NN, range(m)) for m in (1, 2, 3)], [F(1, 2), F(1, 8)], (10, 20), 3,
        ),
        {"eps_list": [0.5, 0.125], "n_grid": [10, 20], "n_paths": 3, "coverage": 0.95,
         "found_fractions": [1.0, 0.3333333333333333], "m_profiles": [[1, 0, 1], [2, None, None]],
         "passed": False},
    ),
    "DfIdentityReport": (
        lambda: df_product_identity_check(
            IIDProcess(ProbMeasure.bernoulli(B2, F(1, 2))), CylinderEvent((ONES, ONES)), n_grid=(10, 20), n_paths=4
        ),
        {"conditioning": "full", "m": 2, "n_grid": [10, 20], "n_paths": 4,
         "lhs_means": [0.2850000000000001, 0.20625000000000002], "rhs_mean": 0.25, "corrections": [0.9, 0.95],
         "gaps": [0.06000000000000008, 0.031249999999999972], "tol": 0.75, "passed": True},
    ),
    "ClosedSetCertificate": (
        lambda: extract_convergent_subsequence(
            MeasureSequence(B2, tuple(ProbMeasure.delta(B2, 0) for _ in range(3)))
        ).certificates[1],
        {"event": "cells:0", "limsup": 1.0, "limit_mass": 1.0, "drift": 0.0, "ok": True},
    ),
    "RcdConstructionReport": (
        lambda: construct_rcd_from_empiricals(
            parse_generator("mixture:grid(1/4,3/4):bern"), [ONES], (100, 200, 300, 400), 2
        ),
        {"scenario": "mixture(grid=1/4,3/4)", "events": ["cells:1"], "n_grid": [100, 200, 300, 400],
         "n_paths": 2, "coverage": 0.95, "tol": 0.05, "marginal_regularity": RADON_TWO_CELLS,
         "not_tight_fraction": 0.0, "pass_fraction": 1.0,
         "kernel_report": {"n_paths": 2, "n_steps": 400, "coverage": 0.95,
                           "events": [{"event": "cells:1", "pass_fraction": 1.0, "max_gap": 0.04749999999999999}],
                           "passed": True},
         "paths": [{"seed": "0:0", "status": "ok", "subsequence_length": 4, "tight_witness": "full",
                    "event_gaps": [0.0], "kernel_gaps": [0.04749999999999999], "passed": True},
                   {"seed": "0:1", "status": "ok", "subsequence_length": 4, "tight_witness": "full",
                    "event_gaps": [0.0], "kernel_gaps": [0.04249999999999998], "passed": True}],
         "passed": True},
    ),
}


def key_orders(d):
    """Every dict's key order, nested dicts and lists of dicts included."""
    if isinstance(d, dict):
        return [list(d), *(key_orders(v) for v in d.values())]
    if isinstance(d, list):
        return [key_orders(v) for v in d]
    return None


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_reports_its_fields_in_the_pinned_key_order(name):
    build, expected = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    d = record.to_dict()
    assert d == expected
    assert key_orders(d) == key_orders(expected)
