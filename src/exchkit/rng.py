"""Counter-based splittable random streams.

Every path gets its own Philox stream keyed by (master seed, path index), so
the j-th variate of a path is a pure function of (master seed, path index, j)
and results never depend on the order in which paths are generated.

A path's uniforms are read in blocks of at most ``_DRAW_BLOCK`` doubles into
one reused buffer (:func:`uniform_blocks`). Philox doubles are read in order,
so the blocks hold the same uniforms as one ``stream.random(n)``.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
# the most draws a sampler makes, and a check holds, at a time
_DRAW_BLOCK = 1 << 16


def path_stream(master_seed: int, path_index: int = 0) -> np.random.Generator:
    """Independent generator for one path, keyed by (master seed, path index)."""
    if master_seed < 0 or path_index < 0:
        raise ValueError("seed and path index must be non-negative")
    key = np.array([master_seed, path_index], dtype=_U64)
    return np.random.Generator(np.random.Philox(key=key))


def block_buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The buffers that a path of n draws is sampled through, reused by every
    block: the uniforms, then the draws, each ``min(n, _DRAW_BLOCK)`` long.

    Kept in that order, as ``stream.random(n)`` came before the path array:
    the draws allocated first raised the peak RSS of a run of many short
    paths by about 2 MB (heap placement), with the same traced peak."""
    m = min(n, _DRAW_BLOCK)
    return np.empty(m), np.empty(m, dtype=np.int64)


def uniform_blocks(stream: np.random.Generator, n: int, u: np.ndarray):
    """The stream's next n uniforms, as consecutive views of the buffer ``u``
    of up to ``len(u)`` doubles each; each view is overwritten by the next."""
    for start in range(0, n, len(u)):
        yield stream.random(out=u[:min(len(u), n - start)])


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
