"""Hypothesis profiles and shared fixtures. `HYPOTHESIS_PROFILE=ci` runs every
property test on a fixed, derandomized example set without deadlines, so a
shared CI runner can neither draw a new failing example nor time a slow one
out."""

import os
import warnings

import pytest
from hypothesis import settings

from resmoteboost import cli, experiment

# Hypothesis imports libcst to report a failing example, and libcst's import
# raises mypy_extensions' TypedDict DeprecationWarning; under `-W error` that
# turns the failure report into a pytest INTERNALERROR. Import it here, with
# only that warning silenced, so a failing property test prints its example.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def started_replications(monkeypatch):
    """The index of every run_replication call, in call order, wherever the
    experiment or the CLI makes it."""
    started, run_replication = [], experiment.run_replication

    def counted(data, cfg, index, capture=None):
        started.append(index)
        return run_replication(data, cfg, index, capture=capture)

    monkeypatch.setattr(experiment, "run_replication", counted)
    monkeypatch.setattr(cli, "run_replication", counted, raising=False)
    return started
