"""Shared fixtures: reference data samples, models and sessions."""

import random

import pytest

from repro.core.energy_model import EnergyModel
from repro.network.wlan import LINK_2MBPS
from repro.workload.corpus import Corpus


def _sample_bank():
    rng = random.Random(0xA11CE)
    return {
        "empty": b"",
        "single": b"Z",
        "tiny": b"abc",
        "ascii": b"the quick brown fox jumps over the lazy dog. " * 64,
        "runs": b"A" * 2000 + b"B" * 1500 + b"ABAB" * 300 + b"C" * 7,
        "random": bytes(rng.getrandbits(8) for _ in range(8192)),
        "structured": bytes((i * i) % 251 for i in range(12000)),
        "all_bytes": bytes(range(256)) * 8,
        "overlap": b"abcabcabcabc" * 500,
    }


SAMPLES = _sample_bank()


@pytest.fixture(params=sorted(SAMPLES))
def sample(request):
    """Every reference byte string, one test per sample."""
    return SAMPLES[request.param]


@pytest.fixture
def samples():
    """The whole sample bank as a dict."""
    return dict(SAMPLES)


@pytest.fixture(scope="session")
def model():
    """The paper's 11 Mb/s model."""
    return EnergyModel()


@pytest.fixture(scope="session")
def model_2mbps():
    """The paper's 2 Mb/s validation model."""
    return EnergyModel(link=LINK_2MBPS)


@pytest.fixture(scope="session")
def corpus_2pct():
    """The Table 2 corpus at 2% scale (37 files, ~1.9 MB), generated once."""
    return Corpus(scale=0.02)


def mb(x: float) -> int:
    """Megabytes (MiB) to bytes, for readable test sizes."""
    return int(x * 2**20)
