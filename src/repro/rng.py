"""Deterministic random-number management.

Every stochastic component in the library receives an explicit
:class:`numpy.random.Generator`.  Experiments derive per-component generators
from a single master seed through :class:`SeedSequenceFactory`, which makes
complete runs reproducible bit-for-bit while keeping the streams of different
components statistically independent.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SeedSequenceFactory", "ensure_rng", "spawn_rngs"]


def ensure_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (fresh unpredictable entropy).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` statistically independent child generators."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


class SeedSequenceFactory:
    """Derive named, reproducible random generators from one master seed.

    The same ``(master_seed, name)`` pair always yields the same stream, and
    different names yield independent streams.  This is how experiments keep
    the server, each client population, and each attack on separate but
    reproducible randomness.
    """

    def __init__(self, master_seed: int) -> None:
        self._master_seed = int(master_seed)
        self._counters: dict[str, int] = {}

    @property
    def master_seed(self) -> int:
        """The master seed this factory was constructed with."""
        return self._master_seed

    def generator(self, name: str) -> np.random.Generator:
        """Return a fresh generator for the component called ``name``.

        Repeated calls with the same name return *new* generators seeded from
        successive positions of the same named stream, so a component may ask
        for several generators without colliding with other components.
        """
        index = self._counters.get(name, 0)
        self._counters[name] = index + 1
        entropy = (self._master_seed, _stable_hash(name), index)
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def child(self, name: str) -> "SeedSequenceFactory":
        """Return a factory whose streams are namespaced under ``name``."""
        entropy = np.random.SeedSequence((self._master_seed, _stable_hash(name)))
        child_seed = int(entropy.generate_state(1, dtype=np.uint64)[0] % (2**62))
        return SeedSequenceFactory(child_seed)


def _stable_hash(name: str) -> int:
    """A hash of ``name`` that is stable across interpreter runs."""
    value = 1469598103934665603
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 1099511628211) % (2**64)
    return value
