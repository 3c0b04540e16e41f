"""End-to-end SSB correctness (§4.4 workload), both engines vs oracle."""
import pytest

from repro.oracle import assert_pandas_equivalent
from repro.queries import ssb
from repro.runner import prepare_ssb, run_query

SF = 0.005
QNAMES = ("q1.1", "q2.1", "q3.1", "q4.1")


@pytest.fixture(scope="module")
def workload():
    oracle, enc = prepare_ssb(SF)
    return oracle, enc, ssb.all_queries(enc)


@pytest.mark.parametrize("qname", QNAMES)
@pytest.mark.parametrize("engine", ["typer", "tectorwise"])
def test_query_vs_oracle(workload, qname, engine):
    oracle, enc, queries = workload
    q = queries[qname]
    got = run_query(q, enc, engine)
    assert_pandas_equivalent(got, q.sql, **{t: oracle[t] for t in q.tables})


@pytest.mark.parametrize("qname", QNAMES)
def test_engines_agree(workload, qname):
    _, enc, queries = workload
    q = queries[qname]
    import pandas as pd

    a = run_query(q, enc, "typer")
    b = run_query(q, enc, "tectorwise")
    cols = sorted(a.columns)
    pd.testing.assert_frame_equal(
        a[cols].sort_values(cols).reset_index(drop=True),
        b[cols].sort_values(cols).reset_index(drop=True),
    )  # dtypes too: both come from the plan


def test_q11_revenue_positive(workload):
    _, enc, queries = workload
    got = run_query(queries["q1.1"], enc, "typer")
    assert len(got) == 1 and got["revenue"][0] > 0


def test_q31_nations_decoded(workload):
    _, enc, queries = workload
    got = run_query(queries["q3.1"], enc, "tectorwise")
    assert got["c_nation"].dtype == object
    assert got["d_year"].between(1992, 1997).all()


def test_q41_regions_filtered(workload):
    oracle, enc, queries = workload
    got = run_query(queries["q4.1"], enc, "typer")
    america = set(
        oracle["customer"][oracle["customer"]["c_region"] == "AMERICA"]["c_nation"]
    )
    assert set(got["c_nation"]).issubset(america)
