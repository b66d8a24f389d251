"""Committed SHA-256 digests of outputs whose bytes must not move.

Every digest covers integers or exactly rounded floating-point results
(sums, differences and quotients; no exp, log or other libm call), so it
does not depend on the platform. A change that moves any of these bytes
fails here by name; a shift that is meant gets a new digest and a line in
CHANGES.md saying why.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from mbpre import IidEnvironment, MarkovEnvironment
from mbpre.cli import main

_MARKOV3 = np.array([[0.1, 0.6, 0.3], [0.5, 0.2, 0.3], [0.4, 0.2, 0.4]])


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_carpet_project_result_digest():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(
            ["carpet", "project", "--p", "0.6", "--depth", "6", "--samples", "40",
             "--seed", "12", "--json"]
        )
    assert code == 0
    result = json.loads(out.getvalue())["result"]
    assert _sha256(json.dumps(result).encode()) == (
        "c73b8420a3f17785838722396d355658c2f7d1ecf1aca0b6f5667c59148504cb"
    )


# (environment, n, rows, seed, digest of the word as little-endian int64)
_WORDS = {
    "iid3-word": (
        IidEnvironment(np.full(3, 1 / 3)), 10_000, None, 21,
        "32c542433de82bfdf4ba5fb49bf1fd78f6e11885b5d812d42b57e3572f5d6314",
    ),
    "iid5-block": (
        IidEnvironment(np.array([0.1, 0.2, 0.3, 0.25, 0.15])), 100, 64, 22,
        "155cc230272ae6425c33ce568f37d7b84a88277d1dd4d677922cd6e4e126c6bc",
    ),
    "iid16-block": (
        IidEnvironment(np.arange(1, 17) / 136), 100, 64, 23,
        "1fb9e09dbebe1aef4e736e4379336875ee6af56dcfb922e7d33447211f5f5f46",
    ),
    "markov3-word": (
        MarkovEnvironment(np.full(3, 1 / 3), _MARKOV3), 10_000, None, 24,
        "e18dfb980fddbad43f6e606fa4316c8d431b022c9c9a1021efe1da4220d74d87",
    ),
    "markov3-block": (
        MarkovEnvironment(np.full(3, 1 / 3), _MARKOV3), 100, 64, 25,
        "eb341dcbf3f00558779a7c5e8e3c392e4ca3afefa09a1cb9540bd1a766f9a14e",
    ),
}


@pytest.mark.parametrize("case", list(_WORDS))
def test_word_digest(case):
    env, n, rows, seed, digest = _WORDS[case]
    word = env.sample_word(n, np.random.default_rng(seed), rows=rows)
    assert _sha256(word.astype("<i8").tobytes()) == digest
