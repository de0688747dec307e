"""The benchmark's hooks into hext: every name perfbench traces exists, and
perfbench's own self-test passes against the current code."""
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


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
