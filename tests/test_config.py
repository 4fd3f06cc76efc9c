"""The test configuration itself: a failing property test is reported as a
failure, and the session goes on to run the rest."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_FAILING = textwrap.dedent("""
    from hypothesis import given, strategies as st

    @given(st.integers())
    def test_first(x):
        assert x < 0

    @given(st.integers())
    def test_second(x):
        assert x > 0
""")


def test_failing_property_tests_do_not_end_the_session(tmp_path):
    # on a failure hypothesis may import libcst to print a patch, and a
    # deprecation warning raised there must not become an internal error
    (tmp_path / "test_two.py").write_text(TWO_FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "2 failed" in proc.stdout
    assert proc.returncode == 1
