"""Counter-based splittable random streams.

Every path gets its own Philox stream keyed by (master seed, path index), so
the j-th variate of a path is a pure function of (master seed, path index, j)
and results never depend on the order in which paths are generated.

Paths are sampled in lanes: a stack of L paths, each reading its own stream
into its own row of one reused L x block buffer (:func:`uniform_blocks`). A
lane block, L x block, holds up to ``_LANE_BLOCK`` doubles, whether L is one
path or many. Philox doubles are read in order, so each row's blocks hold the
same uniforms as one ``stream.random(n)`` of its path, however many lanes are
read beside it.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
# the most draws a sampler makes, and a check holds, at a time: one lane
# block (lanes x block), whose buffers and temporaries, made and freed per lane
# group, stay in cache and off the high-water mark of the heap
_LANE_BLOCK = 1 << 14


def path_stream(master_seed: int, path_index: int = 0) -> np.random.Generator:
    """Independent generator for one path, keyed by (master seed, path index)."""
    if master_seed < 0 or path_index < 0:
        raise ValueError("seed and path index must be non-negative")
    key = np.array([master_seed, path_index], dtype=_U64)
    return np.random.Generator(np.random.Philox(key=key))


def block_buffers(n: int, lanes: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The buffers that ``lanes`` paths of n draws are sampled through,
    reused by every block: the uniforms, then the draws, each lanes x block
    with block = ``min(n, _LANE_BLOCK // lanes)``.

    Kept in that order, as ``stream.random(n)`` came before the path array:
    the draws allocated first raised the peak RSS of a run of many short
    paths by about 2 MB (heap placement), with the same traced peak."""
    shape = (lanes, min(n, max(1, _LANE_BLOCK // lanes)))
    return np.empty(shape), np.empty(shape, dtype=np.int64)


def uniform_blocks(streams, n: int, u: np.ndarray):
    """Each stream's next n uniforms, lane by lane, as consecutive L x m views
    of the L x block buffer ``u``, m up to its block; row l holds the uniforms
    of ``streams[l]``, and each view is overwritten by the next."""
    block = u.shape[1]
    for start in range(0, n, block):
        ub = u[:, :min(block, n - start)]
        for stream, row in zip(streams, ub):
            stream.random(out=row)
        yield ub


def skip_uniforms(stream: np.random.Generator, s: int) -> None:
    """Move ``stream`` on as ``stream.random(s)`` would, without generating
    the s doubles.

    Each double reads one 64-bit Philox output, and Philox makes its outputs
    four to a counter step. The outputs still buffered are read first; past
    them, ``advance`` steps the counter over whole blocks of four, and
    ``random_raw`` reads the rest. ``advance`` also drops a half-read 32-bit
    output, which doubles leave alone, so it is put back. ``stream`` is a
    :func:`path_stream`, so its bit generator is Philox."""
    bg = stream.bit_generator
    state = bg.state
    left = 4 - state["buffer_pos"]
    if s <= left:
        bg.random_raw(s)
        return
    bg.advance((s - left) // 4)
    bg.random_raw((s - left) % 4)
    if state["has_uint32"]:
        moved = bg.state
        moved["has_uint32"], moved["uinteger"] = 1, state["uinteger"]
        bg.state = moved


def path_seed_labels(master_seed: int, n_paths: int) -> list[str]:
    """Stable per-path stream identities, echoed into reports and CSVs."""
    return [f"{master_seed}:{i}" for i in range(n_paths)]
