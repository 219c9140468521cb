"""The benchmark's span tracer still finds every layer it times.

`perfbench/spans.py` wraps each layer at the name its caller resolves at call
time (`crypto.seal`, `runner.observe`, `EdgeCloud.push`, ...). A refactor that
moves a call off that name leaves the span silent, and `Tracer.check` raises;
this test makes such a refactor fail here and not only in the traced benchmark.
"""

import sys
from pathlib import Path

from epitrace.runner import run
from util import retention_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def test_every_span_fires_and_counts_match_the_report(tmp_path):
    tracer = spans.Tracer()
    with tracer.installed():
        report = run(retention_config(), tmp_path, "vault:1=byzantine")
    assert report.ok and report.counts["sets_pruned"] > 0
    tracer.check(report)
