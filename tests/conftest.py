"""Session fixtures shared by the test modules."""

import contextlib
import io
import json

import pytest

from kreinlab.cli import main
from kreinlab.verify import _GROUPS, CheckResult


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """``kreinlab verify --seed 0`` run once per session: its exit code, its
    standard output and its output directory."""
    out = tmp_path_factory.mktemp("verify")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["verify", "--seed", "0", "--out", str(out)])
    return code, stdout.getvalue(), out


@pytest.fixture(scope="session")
def battery(verify_run):
    """``battery(check)``: the results the session's battery run gave for the
    check function ``check``. A check that draws no random numbers gives the
    same results wherever it runs, so the acceptance criteria read them here
    instead of running the check a second time."""
    _, stdout, _ = verify_run
    by_name = {c["name"]: CheckResult(**c) for c in json.loads(stdout)["checks"]}
    names = {check: group for group, check in _GROUPS}
    return lambda check: [by_name[n] for n in names[check]]
