"""The repository's own pytest configuration reports a failing hypothesis
test and goes on to the tests after it."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_given_test_is_reported_and_later_tests_run(pytester):
    # hypothesis' failure report raises a DeprecationWarning, which the
    # warnings-as-errors setting alone would turn into an INTERNALERROR
    # that ends the session. A subprocess, because the warning fires only
    # where the deprecated module is first imported.
    pytester.makepyfile(
        test_inner="""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "--rootdir", str(pytester.path), "test_inner.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
