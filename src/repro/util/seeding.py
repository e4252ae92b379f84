"""Deterministic seeding utilities.

Every stochastic component (protocol coin flips, workload generators,
experiment repetitions) takes an explicit seed and derives child generators
through :class:`numpy.random.SeedSequence` spawning, so that

* the same top-level seed reproduces an entire experiment bit-for-bit,
* independent components never share a stream (no accidental correlation),
* the faithful and the vectorized engines can be driven by *identical*
  randomness, which is what makes exact differential testing possible
  (the shared randomness convention in docs/architecture.md).

:func:`encode_rng_state` / :func:`decode_rng_state` are the one PCG64
state codec: both checkpoint formats (the faithful
:class:`~repro.core.monitor.OnlineSession`'s and the counting kernel's)
persist a session's coin-flip stream through them, so a restored session
draws exactly the coins one that never stopped would.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "normalize_seed",
    "derive_rng",
    "encode_rng_state",
    "decode_rng_state",
    "SeedStream",
]


def normalize_seed(seed: int | None | np.random.SeedSequence) -> np.random.SeedSequence:
    """Coerce a user-facing seed into a :class:`~numpy.random.SeedSequence`.

    ``None`` produces OS entropy (non-reproducible, allowed for interactive
    use); ints must be non-negative.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None:
        return np.random.SeedSequence()
    if not isinstance(seed, (int, np.integer)):
        raise ConfigurationError(
            f"seed must be an int, None or SeedSequence, got {type(seed).__name__}"
        )
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence(int(seed))


def derive_rng(seed: int | None | np.random.SeedSequence, *keys: int) -> np.random.Generator:
    """Create a generator for component ``keys`` under the root ``seed``.

    ``derive_rng(s, 3, 1)`` always yields the same stream, distinct from any
    other key path.  Uses ``spawn_key`` composition rather than arithmetic on
    the seed value so nearby seeds stay uncorrelated.
    """
    root = normalize_seed(seed)
    child = np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(root.spawn_key) + tuple(int(k) for k in keys),
    )
    return np.random.Generator(np.random.PCG64(child))


def encode_rng_state(rng: np.random.Generator) -> dict[str, Any]:
    """Serialize a PCG64 generator's state into JSON-safe types."""
    raw = rng.bit_generator.state
    if raw.get("bit_generator") != "PCG64":
        raise ConfigurationError(
            f"only PCG64 sessions can be checkpointed, got {raw.get('bit_generator')}"
        )
    return {
        "bit_generator": "PCG64",
        "state": int(raw["state"]["state"]),
        "inc": int(raw["state"]["inc"]),
        "has_uint32": int(raw["has_uint32"]),
        "uinteger": int(raw["uinteger"]),
    }


def decode_rng_state(
    data: dict[str, Any], rng: np.random.Generator | None = None
) -> np.random.Generator:
    """Inverse of :func:`encode_rng_state`.

    The state is written into ``rng``, a PCG64 generator the caller has
    already built (a restored session's own), and ``rng`` is returned; with
    no ``rng`` a new generator is built for it.
    """
    if data.get("bit_generator") != "PCG64":
        raise ConfigurationError("checkpoint does not contain a PCG64 state")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": int(data["state"]), "inc": int(data["inc"])},
        "has_uint32": int(data["has_uint32"]),
        "uinteger": int(data["uinteger"]),
    }
    return rng


class SeedStream:
    """An inexhaustible stream of child seeds from a root seed.

    Used by experiment runners that need one independent seed per repetition:

    >>> ss = SeedStream(123)
    >>> seeds = [ss.next_seed() for _ in range(3)]
    >>> len(set(map(str, seeds)))
    3
    """

    def __init__(self, seed: int | None | np.random.SeedSequence):
        self._root = normalize_seed(seed)
        self._count = 0

    @property
    def root(self) -> np.random.SeedSequence:
        """The root seed sequence."""
        return self._root

    @property
    def spawned(self) -> int:
        """How many children have been handed out so far."""
        return self._count

    def next_seed(self) -> np.random.SeedSequence:
        """Return the next child :class:`~numpy.random.SeedSequence`."""
        child = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=tuple(self._root.spawn_key) + (self._count,),
        )
        self._count += 1
        return child

    def next_rng(self) -> np.random.Generator:
        """Return a generator seeded with the next child seed."""
        return np.random.Generator(np.random.PCG64(self.next_seed()))

    def rngs(self, count: int) -> Iterator[np.random.Generator]:
        """Yield ``count`` independent generators."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        for _ in range(count):
            yield self.next_rng()
