"""Splittable counter-based random streams.

Every stochastic object in the package draws from its own Philox stream,
keyed by (master_seed, component, path_index, channel).  Philox is
counter-based, so streams for distinct keys are independent and the values
produced for a given key never depend on how many other streams exist or in
which order they are consumed.  That is what makes batch composition,
chunking and thread count irrelevant to the output.

A key's Philox key is numpy's ``SeedSequence(entropy=master_seed,
spawn_key=(component, path_index, channel)).generate_state(2, uint64)``.
:func:`philox_keys` hashes the keys of a whole chunk at once, a vectorised
copy of that seed_seq hash (O'Neill 2014), and :func:`normal_matrix` draws
any slice of them through one generator by setting its state, so a stream
drawn once costs no per-key ``SeedSequence`` or ``Philox`` set-up, and a
chunk drawn block by block of paths hashes its keys once.  A stream drawn
in blocks of rows (a limit chunk's noise, one time block at a time) is
carried instead: the first call makes one generator per slot, and each
later call draws on from where the last stopped.  Making a generator costs
several times what setting a state does, so only streams that continue are
carried.  A path index must be below :data:`INDEX_LIMIT` (one 32-bit
word).  :func:`stream` builds the same generator the numpy way; it is the
reference the hash and the draws are tested against.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Component codes.  New components append only; reordering would silently
# change every stream.
DRIVER_W = 0
AUX_B = 1
AUX_WBAR = 2
LIMIT_W = 3
ORACLE = 4

# numpy's SeedSequence constants: pool of four 32-bit words, hash and mix
# multipliers, xorshift of half a word
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_ONE_WORD = 1 << 32
INDEX_LIMIT = _ONE_WORD  # path indices are hashed as one 32-bit word


def stream(master_seed: int, component: int, path_index: int, channel: int = 0) -> np.random.Generator:
    """The generator of one (component, path, channel) slot, built per key
    through numpy's ``SeedSequence``: the reference :func:`normal_matrix`
    reproduces, one slot at a time."""
    if master_seed < 0 or path_index < 0 or channel < 0:
        raise ValueError("seed, path index and channel must be non-negative")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(component, path_index, channel))
    return np.random.Generator(np.random.Philox(seq))


class _Hashed(ISeedSequence):
    """A slot's SeedSequence whose state :func:`philox_keys` has generated already.

    Philox takes its key from ``generate_state(2, uint64)``, which here is
    the hashed key itself, so a generator made from it costs no entropy
    draw or second hash (about half of ``Philox(key=...)``'s cost).
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.key


def _words(value: int) -> list:
    """Little-endian 32-bit words of a non-negative int, at least one."""
    out = [value & _MASK32]
    while value >= _ONE_WORD:
        value >>= 32
        out.append(value & _MASK32)
    return out


def philox_keys(master_seed: int, component: int, path_indices, channels: int) -> np.ndarray:
    """Philox keys of every (path index, channel) slot, shape (B, channels, 2).

    Entry [b, c] equals the SeedSequence key of (component,
    path_indices[b], c) under ``master_seed``.  Every path index must fit
    one 32-bit word; the seed may have any number of words.
    """
    idx = np.asarray(path_indices, dtype=np.int64)
    if master_seed < 0 or (idx.size and idx.min() < 0):
        raise ValueError("seed and path indices must be non-negative")
    if idx.size and idx.max() >= INDEX_LIMIT:
        raise ValueError("path indices must fit one 32-bit word")
    seed_words = _words(master_seed)
    # with a spawn key present, the entropy is zero-padded to the pool size
    seed_words += [0] * (_POOL - len(seed_words))
    shape = (len(idx), channels)
    entropy = [np.full(shape, w, dtype=np.uint32) for w in seed_words + [component]]
    entropy.append(np.broadcast_to(idx.astype(np.uint32)[:, None], shape))
    entropy.append(np.broadcast_to(np.arange(channels, dtype=np.uint32), shape))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ (out >> _XSHIFT)

    pool = [hashmix(entropy[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(2, uint64): four 32-bit words, paired little-endian
    hash_const = _INIT_B
    state = []
    for word in pool:
        value = word ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    high = np.uint64(32)
    return np.stack([state[0] | state[1] << high, state[2] | state[3] << high], axis=-1)


def normal_matrix(keys: np.ndarray, shape: tuple, scale: float = 1.0,
                  out: np.ndarray = None, carry: list = None) -> np.ndarray:
    """Scaled standard normals for every slot of a (B, channels, 2) key array.

    Slot (b, c) draws a ``shape`` = (rows, k) matrix from the stream whose
    Philox key is ``keys[b, c]`` (a slice of :func:`philox_keys`) in
    row-major order, multiplies it by ``scale`` and writes it to
    ``out[b, :, c*k:(c+1)*k]``.  ``out`` has shape (B, rows, channels * k),
    may be any strided view, and is allocated when not given; it is
    returned, and holds exactly the normals drawn.

    Without ``carry`` every stream is drawn from its start through one
    generator, so no generator is shared between threads.  ``carry``, a
    list, carries the streams from call to call instead: the first call
    fills it with one generator per slot, and each later call on the same
    keys draws on from where the last stopped, so rows drawn in blocks equal
    the rows of one call.
    """
    rows, k = shape
    channels = keys.shape[1]
    if out is None:
        out = np.empty((keys.shape[0], rows, channels * k))
    if carry is None:
        generators = _restarted(keys)
    else:
        if not carry:
            carry.extend(np.random.Generator(np.random.Philox(_Hashed(key)))
                         for key in keys.reshape(-1, 2))
        generators = carry
    draw = np.empty(shape)
    for slot, gen in enumerate(generators):
        b, c = divmod(slot, channels)
        gen.standard_normal(out=draw)
        np.multiply(draw, scale, out=out[b, :, c * k:(c + 1) * k])
    return out


def _restarted(keys: np.ndarray):
    """One generator, set to the start of each slot's stream in turn, slot-major."""
    gen = np.random.Generator(np.random.Philox())
    state = gen.bit_generator.state  # a fresh state: empty buffer, no spare word
    counter = np.zeros(4, dtype=np.uint64)
    for key in keys.reshape(-1, 2):
        state["state"] = {"counter": counter, "key": key}
        gen.bit_generator.state = state
        yield gen
