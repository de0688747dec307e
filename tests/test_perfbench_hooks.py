"""The benchmark's hooks into hext: every name perfbench traces exists, its
summaries read real results, and perfbench's own self-test passes against
the current code."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import hext.cli  # noqa: F401  the tracer wraps the modules the CLI loads ...
    import hext.profile_ode.integrate  # noqa: F401  ... and the first numerical call
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer.missing == []


def test_trace_summaries_read_real_results(monkeypatch):
    # the summaries --trace records read fields of ShootResult and ScanResult
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from hext import defect_scan, shoot

    res = shoot(1)
    info = tracing._shoot_info(res, (1,), {})
    assert set(info) == {"m", "c_star", "defect", "iterations", "scan_points"}
    assert info["scan_points"] == info["iterations"] == len(res.scan.points)
    info = tracing._scan_info(defect_scan(1, 2.0, 5.0, 4), (), {})
    assert info == {"points": 4, "failed": 0}


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_tracer_counts_both_exact_products(monkeypatch):
    # the tracer wraps a method only in its own class's namespace, so a
    # product inherited from a base class would be reported present but
    # never counted
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from hext import alpha_series, rank1_check

    tracer = tracing.Tracer()
    with tracer.installed():
        rank1_check(2)
        assert tracer.counts["grassmann_mul"] > 0
        alpha_series(3, 2)
        assert any(span[0] == "truncpoly_mul" for span in tracer.spans)
