"""The test settings themselves: a failing test reports, and the session goes on."""

import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_reports_and_the_next_test_runs(tmp_path):
    # on a failure, hypothesis writes a patch through libcst, which warns on import;
    # under this project's warning filters that must not end the session
    test_file = tmp_path / "test_pair.py"
    test_file.write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
    assert proc.returncode == 1, output
