"""Shared fixtures: one theta cache per session so tables calibrate once;
the hypothesis profile every property test runs under."""

import os

import pytest
from hypothesis import settings

from posverify.experiment import PRESETS, resolve_theta_table

# the same examples on every run, and no per-example deadline: kernel-heavy
# examples on a loaded host must not fail on time alone
settings.register_profile("posverify", derandomize=True, deadline=None)
settings.load_profile("posverify")


@pytest.fixture(scope="session", autouse=True)
def theta_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("theta-cache")
    old = os.environ.get("POSVERIFY_THETA_CACHE")
    os.environ["POSVERIFY_THETA_CACHE"] = str(path)
    yield path
    if old is None:
        os.environ.pop("POSVERIFY_THETA_CACHE", None)
    else:
        os.environ["POSVERIFY_THETA_CACHE"] = old


@pytest.fixture(scope="session")
def neg_table(theta_cache):
    return resolve_theta_table(PRESETS["neg-noise-52"])


@pytest.fixture(scope="session")
def sig_table(theta_cache):
    return resolve_theta_table(PRESETS["sig-noise-62"])
