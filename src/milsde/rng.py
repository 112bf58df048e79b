"""Splittable counter-based random streams.

Every stochastic object in the package draws from its own Philox stream,
keyed by (master_seed, component, path_index, channel).  Philox is
counter-based, so streams for distinct keys are independent and the values
produced for a given key never depend on how many other streams exist or in
which order they are consumed.  That is what makes batch composition,
chunking and thread count irrelevant to the output.

A key's Philox key is numpy's ``SeedSequence(entropy=master_seed,
spawn_key=(component, path_index, channel)).generate_state(2, uint64)``.
:func:`normal_matrix` hashes the keys of a whole batch at once with
:func:`philox_keys`, a vectorised copy of that seed_seq hash (O'Neill 2014),
and draws them all through one generator by setting its state, so a stream
costs no per-key ``SeedSequence`` or ``Philox`` set-up.  :func:`stream`
builds the same generator the numpy way; it is the reference the hash is
tested against and the fallback for keys the hash does not cover.
"""

import numpy as np

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


def stream(master_seed: int, component: int, path_index: int, channel: int = 0) -> np.random.Generator:
    """Return the generator for one (component, path, channel) slot."""
    if master_seed < 0 or path_index < 0 or channel < 0:
        raise ValueError("seed, path index and channel must be non-negative")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(component, path_index, channel))
    return np.random.Generator(np.random.Philox(seq))


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
    if idx.size and idx.max() >= _ONE_WORD:
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


def normal_matrix(master_seed: int, component: int, path_indices, shape: tuple,
                  channels: int = 1, scale: float = 1.0, out: np.ndarray = None) -> np.ndarray:
    """Scaled standard normals for every (path index, channel) slot.

    Slot (b, c) draws a ``shape`` = (rows, k) matrix from its stream in
    row-major order, multiplies it by ``scale`` and writes it to
    ``out[b, :, c*k:(c+1)*k]``.  ``out`` has shape (B, rows, channels * k)
    and is allocated when not given.  One generator serves the whole call,
    so no generator is shared between threads.
    """
    rows, k = shape
    idx = np.asarray(path_indices, dtype=np.int64)
    if out is None:
        out = np.empty((len(idx), rows, channels * k))
    if idx.size and idx.max() >= _ONE_WORD:
        def generator(b, c):
            return stream(master_seed, component, int(idx[b]), c)
    else:
        keys = philox_keys(master_seed, component, idx, channels)
        gen = np.random.Generator(np.random.Philox())
        state = gen.bit_generator.state  # a fresh state: empty buffer, no spare word
        counter = np.zeros(4, dtype=np.uint64)

        def generator(b, c):
            state["state"] = {"counter": counter, "key": keys[b, c]}
            gen.bit_generator.state = state
            return gen
    draw = np.empty(shape)
    for b in range(len(idx)):
        for c in range(channels):
            generator(b, c).standard_normal(out=draw)
            np.multiply(draw, scale, out=out[b, :, c * k:(c + 1) * k])
    return out
