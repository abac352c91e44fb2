"""Deterministic seed derivation.

All randomness in the toolkit funnels through a single run seed.  Subsystem
and per-repetition seeds are derived by hashing ``(seed, *scope)`` with
SHA-256, so results are identical regardless of scheduling, worker count, or
platform.

A seed is an integer and not a bool, of any sign and size; numpy integers
count.  Anything else, a float, a string or None, raises
:class:`~riskcdf.errors.ConfigError` rather than standing in for the
integer it would convert to.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

from .errors import ConfigError


def derive_seed(seed: int, *scope) -> int:
    """Derive a 64-bit child seed from a root seed and a scope path.

    ``derive_seed(7, "montecarlo", 12)`` is a pure function of its
    arguments; distinct scopes give statistically independent streams.
    ``seed`` must be an integer and not a bool, else :class:`ConfigError`.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ConfigError(f"a seed must be an integer, got {seed!r}")
    msg = ":".join([str(int(seed)), *map(str, scope)]).encode()
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "big")


def rng_from(seed: int, *scope) -> np.random.Generator:
    """Counter-based generator (Philox) seeded from a derived seed."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, *scope)))


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals from two arrays of uniforms on [0, 1), computed in
    place: the normals overwrite ``u1``, which is returned, and ``u2`` is
    left holding cosines.  ``u1`` is reflected into (0, 1] to keep the
    logarithm finite.  Each element gets the IEEE operations of
    ``sqrt(-2 log(1 - u1)) * cos(2 pi u2)`` in that order, so the normals
    are the same floats as that expression's."""
    np.subtract(1.0, u1, out=u1)
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via the Box-Muller transform.

    Uses explicit Box-Muller over the generator's uniforms instead of the
    library's ziggurat sampler so that streams are reproducible across
    library versions from the seed alone.  Draws ``u1``, then ``u2``, each
    of ``shape``; the normals are computed in ``u1``'s array.
    """
    u1 = rng.random(shape)
    u2 = rng.random(shape)
    return _box_muller(u1, u2)


def standard_normal_rows(rng: np.random.Generator, uniforms: np.ndarray) -> np.ndarray:
    """Successive ``standard_normal(rng, d)`` draws, bit for bit, as the rows
    of one array, from one ``rng.random`` call that refills ``uniforms``, a
    C-contiguous float64 buffer of shape (rows, 2, d).  The generator yields
    its doubles in the same order whatever the shape of the call, so row k's
    ``u1`` and ``u2`` are the 2d doubles that the k-th separate draw takes.

    The transform overwrites the uniforms: the result is the view
    ``uniforms[:, 0]``, valid until the buffer is refilled."""
    rng.random(out=uniforms)
    return _box_muller(uniforms[:, 0], uniforms[:, 1])
