import sys

import pytest


@pytest.fixture(autouse=True, scope="session")
def _private_cache_home(tmp_path_factory):
    """Dataset-CSV cache entries go to a temporary directory, never to the user's home."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines after the run, bypassing capture."""
    acceptance = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(acceptance, "VERDICT_LINES", None) if acceptance else None
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(
            lines, key=lambda s: int(s.split("criterion ")[1].split(":")[0])
        ):
            terminalreporter.write_line(line)
