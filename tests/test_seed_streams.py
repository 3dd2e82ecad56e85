"""The suites' generators: each stream's seed words are hashed once and
every generator built from them starts where ``default_rng`` starts."""

import contextlib
import io

import numpy as np

from struveops.cli import main
from struveops.suites import _rng


def reprs(values):
    return [repr(v) for v in values.tolist()]


def test_a_cached_stream_starts_where_default_rng_starts():
    for seed in range(30):
        first = _rng(seed, 9, seed)  # hashes the stream's words
        first.uniform(size=5)  # a second generator of the stream, partly drawn
        rng, ref = _rng(seed, 9, seed), np.random.default_rng([seed, 9, seed])
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng is not first and rng.bit_generator is not first.bit_generator
        first.uniform(size=3)
        assert reprs(rng.uniform(-2.0, 2.0, size=(4, 2))) == reprs(ref.uniform(-2.0, 2.0, size=(4, 2)))
        assert reprs(rng.normal(size=3)) == reprs(ref.normal(size=3))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_verify_all_hashes_each_stream_once(monkeypatch):
    # verify --suite all builds 471 generators over 201 streams: (seed, 1, i)
    # and (seed, 2, i) for i < 100, and (seed, 2).  Each stream's words are
    # hashed once, by SeedSequence; default_rng would hash them per build.
    # The seed is used by no other test, so its streams start uncached; a
    # first op at another seed builds what is built once per process.
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--suite", "all", "--seed", "4241"]) == 0
    hashed = []
    seed_sequence, default_rng = np.random.SeedSequence, np.random.default_rng

    def counted_sequence(entropy, *args, **kwargs):
        hashed.append(tuple(entropy))
        return seed_sequence(entropy, *args, **kwargs)

    def counted_rng(seed, *args, **kwargs):
        hashed.append(tuple(seed))
        return default_rng(seed, *args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted_sequence)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--suite", "all", "--seed", "4242"]) == 0
    assert len(hashed) == len(set(hashed)) == 201
    assert set(hashed) == {(4242, 2), *((4242, s, i) for s in (1, 2) for i in range(100))}
