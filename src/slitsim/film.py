"""Compiling dephasing channels into frame schedules and back.

An acquisition window is split into n_frames equal time slices; each slice
shows one phase mask realizing one dephasing operator.  Running the film
for the whole window applies the weighted channel whose weights are the
frame fractions.  Each sign flip weighs p/4 (p as `slitsim.channels` defines
it), so a target parameter p is representable exactly iff p * n_frames / 4
is an integer.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .channels import DephasingChannel, _uniform_flip_weight
from .qcore import _check_dim

DEFAULT_FRAMES = 32
# a film stores one index per frame and formats to one line per frame
MAX_FRAMES = 1 << 16


class NonRepresentableP(ValueError):
    """Requested p does not sit on the frame grid; carries the two nearest values."""

    def __init__(self, p: float, below: float, above: float):
        self.p = p
        self.below = below
        self.above = above
        nearest = f"value is {below:.6g}" if below == above else f"values are {below:.6g} and {above:.6g}"
        super().__init__(
            f"p = {p:.6g} is not representable with this frame count; "
            f"nearest representable {nearest}"
        )


@dataclass(frozen=True)
class FilmSchedule:
    """Ordered operator indices per frame; index d means the identity.  Every
    sign flip appears k times, 4k <= n_frames, so the film has one p = 4k/n_frames."""

    d: int
    n_frames: int
    frames: tuple[int, ...]

    def __post_init__(self):
        _check_dim(self.d, "d")
        if not 1 <= self.n_frames <= MAX_FRAMES:
            raise ValueError(f"n_frames must lie in [1, {MAX_FRAMES}], got {self.n_frames}")
        frames = tuple(map(int, self.frames))
        if len(frames) != self.n_frames:
            raise ValueError(f"expected {self.n_frames} frames, got {len(frames)}")
        flips = Counter(frames)
        if any(i < 0 or i > self.d for i in flips):
            raise ValueError("frame indices must lie in {0..d}")
        del flips[self.d]  # the identity; a Counter ignores a missing key
        k, rem = divmod(sum(flips.values()), self.d)  # all d flips k times iff the present ones are
        if rem or any(c != k for c in flips.values()):
            raise ValueError("every sign-flip operator must appear in the same number of frames")
        if 4 * k > self.n_frames:
            raise ValueError(f"{k} of {self.n_frames} frames per sign flip give p = 4k/n_frames > 1")
        object.__setattr__(self, "frames", frames)

    def operator_counts(self) -> list[int]:
        """Frame count per operator index 0..d."""
        return [self.frames.count(j) for j in range(self.d + 1)]

    def weight_fractions(self) -> list[Fraction]:
        """Exact frame-fraction weights per operator index 0..d."""
        return [Fraction(c, self.n_frames) for c in self.operator_counts()]


def compile_film(d: int, p: float, n_frames: int = DEFAULT_FRAMES) -> FilmSchedule:
    """Schedule realizing the uniform-weight dephasing parameter p.

    Each sign-flip operator occupies p * n_frames / 4 frames (its weight p/4)
    and the identity fills the rest; the identity block leads and the
    operator blocks follow in ascending index.  Off-grid p is rejected with
    the two nearest representable values.
    """
    if not 1 <= n_frames <= MAX_FRAMES:  # before the frame list is built
        raise ValueError(f"n_frames must lie in [1, {MAX_FRAMES}], got {n_frames}")
    per_op = _uniform_flip_weight(d, p) * n_frames
    k = round(per_op)
    if abs(per_op - k) > 1e-9:
        k_max = n_frames // max(d, 4)  # the grid: 4k / n_frames with d k, 4 k <= n_frames
        below, above = (4 * min(j, k_max) / n_frames for j in (math.floor(per_op), math.ceil(per_op)))
        raise NonRepresentableP(p, below, above)
    frames = [d] * (n_frames - k * d)
    for j in range(d):
        frames.extend([j] * k)
    return FilmSchedule(d, n_frames, tuple(frames))


def effective_channel(film: FilmSchedule) -> DephasingChannel:
    """Time-averaged channel of a schedule: the flip weights are frame fractions."""
    return DephasingChannel(film.weight_fractions()[:-1])


def mask_phases(film: FilmSchedule, frame_index: int) -> list[float]:
    """Per-slit phases of one frame: pi at the flipped slit, 0 elsewhere."""
    if not 0 <= frame_index < film.n_frames:
        raise ValueError(f"frame index {frame_index} out of range")
    op = film.frames[frame_index]
    return [math.pi if slit == op else 0.0 for slit in range(film.d)]
