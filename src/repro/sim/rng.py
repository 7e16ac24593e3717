"""Deterministic random-number streams.

Every stochastic decision in the system (workload mix, file selection, think
times) draws from a :class:`SeededRng`.  Streams are derived from a base seed
and a string label, so adding a new consumer never perturbs the draws seen
by existing consumers — a property the repeatability experiments rely on.
"""

import hashlib
import random

__all__ = ["SeededRng", "derive_seed"]

_SEED_MASK = (1 << 63) - 1


def derive_seed(base_seed, *labels):
    """Return a child seed derived from ``base_seed`` and the given labels.

    The derivation hashes the base seed together with every label, so
    ``derive_seed(s, "client", 3)`` is stable across runs and independent of
    ``derive_seed(s, "client", 4)``.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(base_seed)).encode("ascii"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big") & _SEED_MASK


class SeededRng:
    """A labelled, reproducible random stream.

    Wraps :class:`random.Random` and adds :meth:`substream` for deriving
    independent child streams.
    """

    def __init__(self, seed, label="root"):
        self.seed = int(seed) & _SEED_MASK
        self.label = label
        self._random = random.Random(self.seed)

    def substream(self, *labels):
        """Return a new independent :class:`SeededRng` for the given labels."""
        child_seed = derive_seed(self.seed, *labels)
        child_label = "/".join([self.label] + [str(item) for item in labels])
        return SeededRng(child_seed, label=child_label)

    @property
    def generator(self):
        """The underlying :class:`random.Random`.

        A hot loop may call its methods directly: they draw exactly what
        this stream's same-named methods draw, one frame shallower.
        """
        return self._random

    def random(self):
        return self._random.random()

    def uniform(self, low, high):
        return self._random.uniform(low, high)

    def randint(self, low, high):
        return self._random.randint(low, high)

    def choice(self, sequence):
        return self._random.choice(sequence)

    def choices(self, population, weights=None, k=1):
        return self._random.choices(population, weights=weights, k=k)

    def shuffle(self, items):
        self._random.shuffle(items)

    def sample(self, population, k):
        return self._random.sample(population, k)

    def expovariate(self, rate):
        return self._random.expovariate(rate)

    def gauss(self, mean, sigma):
        return self._random.gauss(mean, sigma)

    def zipf_index(self, count, alpha=1.0):
        """Draw an index in ``[0, count)`` following a Zipf-like law.

        SPECWeb99 accesses files with a Zipf distribution; this helper keeps
        the (small) amount of numerical code in one tested place.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        weights = [1.0 / ((rank + 1) ** alpha) for rank in range(count)]
        total = sum(weights)
        target = self._random.random() * total
        acc = 0.0
        for index, weight in enumerate(weights):
            acc += weight
            if target <= acc:
                return index
        return count - 1

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, label={self.label!r})"
