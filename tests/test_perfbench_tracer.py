"""The benchmark's span tracer wraps ``repro`` attributes by name: every
target must exist, and ``uninstall`` must restore each one."""
import importlib.util
import pathlib

from repro import runner
from repro.core import spark_exec
from repro.core.common import plan

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TARGETS = [(plan, "decode_result"), (runner, "decode_result"),
           (spark_exec, "_materialize"), (spark_exec, "_build_ht"),
           (spark_exec, "run_plan_spark")]


def test_tracer_install_uninstall():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = [getattr(owner, name) for owner, name in TARGETS]
    tracer = spans.ReproTracer()
    tracer.install()
    try:
        assert [getattr(o, n).__wrapped__ for o, n in TARGETS] == before
    finally:
        tracer.uninstall()
    assert [getattr(owner, name) for owner, name in TARGETS] == before
