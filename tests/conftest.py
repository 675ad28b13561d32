import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

# the reference library's own test tree (img2table checkout next to this
# repository); tests whose inputs are vendored in img2table_ray/fixtures
# read those copies instead
REFERENCE = os.path.join(os.path.dirname(REPO), "reference", "tests")
_SKIP_PREFIX = "requires_reference: missing "


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "requires_reference(*paths): reads these files of the "
        "reference checkout (REFERENCE); skipped when one is missing")


def pytest_runtest_setup(item):
    for marker in item.iter_markers("requires_reference"):
        for path in marker.args:
            if not os.path.exists(path):
                pytest.skip(_SKIP_PREFIX + path)


def pytest_terminal_summary(terminalreporter):
    n = sum(1 for rep in terminalreporter.stats.get("skipped", [])
            if _SKIP_PREFIX in str(rep.longrepr))
    if n:
        terminalreporter.write_line(f"{n} skipped by requires_reference "
                                    f"(reference tests at {REFERENCE})")


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()
