"""The project's pytest settings let a failing Hypothesis test fail alone.

``filterwarnings = ["error"]`` turns every warning into an error, also one
raised inside a plugin's hook. With Hypothesis 6.155 and mypy_extensions
installed, Hypothesis's report hook for a failing ``@given`` test reaches
``mypy_extensions.TypedDict``, which warns that it is deprecated; as an
error, that warning stopped the whole run with an INTERNALERROR after the
first failure, so the tests after it never ran. The settings ignore that
one warning. This test runs a failing and a passing ``@given`` test under
a copy of the project's ``pyproject.toml``, in a pytest process of its own.
"""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_given_test_does_not_stop_the_run(pytester):
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 0

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_passes(n):
            assert n == n
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
