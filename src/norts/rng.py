"""Seedable, splittable random streams.

Every stochastic procedure in the package draws uniforms from an
:class:`RngStream` and transforms them by inverse CDF.  A stream is
identified by a 64-bit ``seed`` plus a path of 64-bit indices whose first
entry is the ``stream_id``; the pair is hashed into a Philox counter-based
generator key, so identical identities replay identical sequences on every
platform and distinct identities give statistically independent output.

:meth:`RngStream.uniform_rows` draws the same stretch of uniforms from many
sub-streams at once.  It derives their keys in one vectorized pass that
reproduces numpy's ``SeedSequence`` hash, so the row of index ``i`` is bit
for bit what ``substream(i).uniform`` returns, or ``substream(i)
.substream(0).uniform`` with ``tail=(0,)``, from the ``start``-th uniform
on.  Callers that need many rows draw them in bounded blocks through
``_uniform_blocks``.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import InvalidInputError

_UINT64_MAX = 2**64 - 1
# Elements of the uniform matrix that _uniform_blocks draws at a time (8 MB):
# a 200-trial cell at n = 100 is one block, 1000 vavra replicates at n = 1000
# are two, and n = 10**4 takes about 100 rows.  A quarter of this cost vavra
# up to 10 % more CPU: the heap grows and trims once per block, and every
# block page-faults its temporaries afresh.
_BLOCK_ELEMENTS = 1 << 20

# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, as numpy splits it."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _philox_keys(
    seed: int, path: tuple[int, ...], indices, tail: tuple[int, ...] = ()
) -> np.ndarray:
    """Philox keys of the streams (seed, path + (i,) + tail) for each i in ``indices``.

    Row i equals ``SeedSequence(seed, spawn_key=path + (i,) + tail)
    .generate_state(2, np.uint64)``: the same entropy assembly, pool mixing
    and output hash.  The seed-and-path words come first and are the same
    for every row, so they are mixed in Python ints, once; only the index
    and tail words are mixed as uint32 columns over the whole batch.
    Indices must be below 2**32 so each contributes one entropy word.
    """
    entropy = _words(seed)
    # A spawn key is present, so numpy zero-pads the seed to the pool size.
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for entry in path:
        entropy += _words(entry)
    entropy.append(np.asarray(indices, dtype=np.uint32))
    for entry in tail:
        entropy += _words(entry)
    hash_const = _INIT_A

    # on Python ints and on uint32 arrays alike: the masks keep ints to 32 bits
    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state.append((word ^ word >> _XSHIFT).astype(np.uint64))
    # Words pair up little-endian into the two 64-bit key halves.
    return np.stack(
        [state[0] | (state[1] << np.uint64(32)), state[2] | (state[3] << np.uint64(32))], axis=-1
    )


class RngStream:
    """Deterministic uniform source, splittable into independent sub-streams.

    Parameters
    ----------
    seed : int
        Master seed, 0 <= seed < 2**64.
    stream_id : int
        Index of this stream under the seed, 0 <= stream_id < 2**64.
        Streams with distinct ids never share output.

    A stream is single-owner: callers consume it sequentially.  For parallel
    fan-out, derive one child per work item with :meth:`substream` before
    dispatch; children are independent of the parent and of each other.
    Pickling transfers the identity only, so an unpickled stream restarts
    from the beginning of its sequence.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, stream_id: int = 0, _path: tuple[int, ...] | None = None):
        seed = int(seed)
        if not 0 <= seed <= _UINT64_MAX:
            raise InvalidInputError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if _path is None:
            stream_id = int(stream_id)
            if not 0 <= stream_id <= _UINT64_MAX:
                raise InvalidInputError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
            _path = (stream_id,)
        self.seed = seed
        self.path = _path
        self._gen: Generator | None = None

    def substream(self, index: int) -> "RngStream":
        """Child stream for work item ``index``; independent of the parent."""
        index = int(index)
        if index < 0:
            raise InvalidInputError("substream index must be non-negative")
        return RngStream(self.seed, _path=self.path + (index,))

    def _generator(self) -> Generator:
        if self._gen is None:
            ss = SeedSequence(entropy=self.seed, spawn_key=self.path)
            self._gen = Generator(Philox(ss))
        return self._gen

    def uniform(self, size: int | None = None):
        """Uniform draws on (0, 1); scalar when ``size`` is None.

        The zero endpoint is floored away so inverse-CDF transforms stay
        finite.
        """
        u = self._generator().random(size)
        return np.maximum(u, np.finfo(float).tiny)

    def uniform_rows(
        self, indices, size: int, tail: tuple[int, ...] = (), start: int = 0
    ) -> np.ndarray:
        """Uniforms ``start`` to ``start + size`` of the sub-streams ``path +
        (i,) + tail``, one row per index ``i`` in ``indices`` (each below
        2**32).

        Row r equals ``substream(indices[r]).uniform(start + size)[start:]``
        when ``tail`` is empty and ``substream(indices[r]).substream(0)
        .uniform(start + size)[start:]`` for ``tail=(0,)``.  One Philox
        generator is re-keyed for each row instead of building a stream per
        row, which leaves this stream's own state untouched.  Philox makes
        four uniforms per counter value, so each row starts at counter
        ``start // 4`` and draws the ``start % 4`` uniforms before ``start``
        that share its block; with ``start % 4`` nonzero the result is a
        view that skips them.
        """
        keys = _philox_keys(self.seed, self.path, indices, tail)
        skip = start % 4
        out = np.empty((len(keys), skip + size))
        bitgen = Philox(0)
        gen = Generator(bitgen)
        state = bitgen.state  # buffer empty, as in a fresh stream
        state["state"]["counter"][0] = start // 4
        for row, key in zip(out, keys):
            state["state"]["key"] = key
            bitgen.state = state
            gen.random(out=row)
        out = out[:, skip:]
        return np.maximum(out, np.finfo(float).tiny, out=out)

    def _uniform_blocks(self, indices, size: int, tail: tuple[int, ...] = (), start: int = 0):
        """:meth:`uniform_rows` of ``indices`` in consecutive row blocks of at
        most ``_BLOCK_ELEMENTS`` elements (one row at least), as pairs
        (indices of the block, its uniforms), so that a caller working
        through the rows holds one block at a time."""
        block = max(1, _BLOCK_ELEMENTS // size)
        for first in range(0, len(indices), block):
            rows = indices[first : first + block]
            yield rows, self.uniform_rows(rows, size, tail, start)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, RngStream):
            return NotImplemented
        return self.seed == other.seed and self.path == other.path

    def __hash__(self) -> int:
        return hash((self.seed, self.path))

    def __getstate__(self):
        return (self.seed, self.path)

    def __setstate__(self, state):
        self.seed, self.path = state
        self._gen = None
