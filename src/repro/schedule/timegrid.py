"""Time grids: uniform slots and geometric (interval-indexed) slots.

The paper's main LP (Section 3) indexes time by unit slots ``[t-1, t]``.
Appendix A replaces the unit slots with geometric intervals
``tau_0 = 0, tau_1 = 1, tau_k = (1+eps)^(k-1)`` so that the number of
variables stays polynomial even when the horizon is huge, at the cost of a
``(1+eps)`` factor in the approximation guarantee.  Both are instances of the
same abstraction: an increasing sequence of slot boundaries.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

import numpy as np

from repro.utils.validation import check_positive

#: Decimal places the canonical (hash/equality) boundary representation is
#: rounded to.  1e-9 absolute is far below any meaningful slot length yet
#: far above the float noise accumulated when identical grids are rebuilt
#: from the same parameters.
_CANONICAL_DECIMALS = 9


def relative_tol(magnitude: float, base: float) -> float:
    """*base* scaled up with *magnitude* so it survives float rounding.

    An absolute tolerance like ``1e-12`` vanishes once times reach ~1e6
    (double precision resolves only ~1e-10 there), silently turning boundary
    comparisons exact.  Scaling by ``max(1, |magnitude|)`` keeps the
    tolerance meaningful at any horizon while preserving the original
    absolute value for small times.

    This is *the* boundary-tolerance discipline for time comparisons —
    shared by the grid methods below, the online epoch computation
    (:mod:`repro.online.engine`) and the online verification invariants —
    so a future tolerance change has exactly one site.
    """
    return base * max(1.0, abs(magnitude))


class TimeGrid:
    """An increasing sequence of slot boundaries ``0 = b_0 < b_1 < ... < b_T``.

    Slot ``t`` (1-based, following the paper) covers the half-open interval
    ``(b_{t-1}, b_t]``.  Internally slots are indexed 0-based; all public
    methods take 0-based slot indices and document the mapping.
    """

    def __init__(self, boundaries: Sequence[float] | np.ndarray) -> None:
        bounds = np.asarray(boundaries, dtype=float)
        if bounds.ndim != 1 or bounds.size < 2:
            raise ValueError("a time grid needs at least two boundaries")
        if abs(bounds[0]) > 1e-12:
            raise ValueError(f"the first boundary must be 0, got {bounds[0]}")
        if not np.all(np.diff(bounds) > 1e-12):
            raise ValueError("boundaries must be strictly increasing")
        self._bounds = bounds
        self._durations = np.diff(bounds)
        # Canonical rounded boundaries back equality, hashing and the store
        # fingerprint: grids built twice from the same parameters agree
        # exactly, and sub-1e-9 float noise does not split cache keys.
        self._canonical = np.round(bounds, _CANONICAL_DECIMALS)
        self._canonical.setflags(write=False)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def uniform(cls, num_slots: int, slot_length: float = 1.0) -> "TimeGrid":
        """A grid of *num_slots* equal slots of *slot_length* each."""
        if num_slots < 1:
            raise ValueError("num_slots must be at least 1")
        check_positive(slot_length, "slot_length")
        bounds = np.arange(num_slots + 1, dtype=float) * slot_length
        return cls(bounds)

    @classmethod
    def geometric(cls, horizon: float, epsilon: float) -> "TimeGrid":
        """Geometric intervals covering ``[0, horizon]`` (paper Appendix A).

        Boundaries follow ``0, 1, (1+eps), (1+eps)^2, ...`` until the horizon
        is covered, with one refinement: in the paper's construction every
        interval groups whole unit time slots, so no interval can be shorter
        than one slot.  Each boundary therefore advances by at least 1
        (``b_{k+1} = max(b_k (1+eps), b_k + 1)``); once ``b_k >= 1/eps`` the
        grid is purely geometric and the number of slots is
        ``O(1/eps + log_{1+eps} horizon)``.  Without this floor the early,
        sub-slot intervals would let the interval-indexed completion-time
        bound (Eq. 16, which adds ``+1`` because completions happen on whole
        slots) exceed values achievable by interval-aligned schedules.
        """
        check_positive(horizon, "horizon")
        check_positive(epsilon, "epsilon")
        bounds = [0.0, 1.0]
        while bounds[-1] < horizon - 1e-12:
            last = bounds[-1]
            bounds.append(max(last * (1.0 + epsilon), last + 1.0))
        return cls(np.array(bounds))

    @classmethod
    def from_boundaries(cls, boundaries: Sequence[float]) -> "TimeGrid":
        """Arbitrary custom grid (used by tests)."""
        return cls(boundaries)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def num_slots(self) -> int:
        """Number of slots ``T``."""
        return self._durations.size

    @property
    def boundaries(self) -> np.ndarray:
        """Copy of the boundary array (length ``T + 1``)."""
        return self._bounds.copy()

    @property
    def durations(self) -> np.ndarray:
        """Slot durations ``b_t - b_{t-1}`` (length ``T``)."""
        return self._durations.copy()

    @property
    def horizon(self) -> float:
        """The final boundary ``b_T``."""
        return float(self._bounds[-1])

    @property
    def is_uniform(self) -> bool:
        """Whether all slots have (numerically) equal length."""
        return bool(np.allclose(self._durations, self._durations[0]))

    def slot_start(self, slot: int) -> float:
        """Left boundary of 0-based *slot*."""
        return float(self._bounds[self._check_slot(slot)])

    def slot_end(self, slot: int) -> float:
        """Right boundary of 0-based *slot*."""
        return float(self._bounds[self._check_slot(slot) + 1])

    def slot_duration(self, slot: int) -> float:
        """Length of 0-based *slot*."""
        return float(self._durations[self._check_slot(slot)])

    def _check_slot(self, slot: int) -> int:
        slot = int(slot)
        if not 0 <= slot < self.num_slots:
            raise IndexError(
                f"slot {slot} out of range for grid with {self.num_slots} slots"
            )
        return slot

    def slot_containing(self, time: float) -> int:
        """0-based index of the slot whose interval ``(b_{t-1}, b_t]`` holds *time*.

        ``time = 0`` maps to slot 0.  Times beyond the horizon raise.
        """
        if time < 0:
            raise ValueError(f"time must be non-negative, got {time}")
        if time > self.horizon + relative_tol(self.horizon, 1e-9):
            raise ValueError(
                f"time {time} is beyond the grid horizon {self.horizon}"
            )
        if time <= self._bounds[1]:
            return 0
        # searchsorted with side='left' gives the first boundary >= time.
        idx = int(
            np.searchsorted(
                self._bounds, time - relative_tol(time, 1e-12), side="left"
            )
        )
        return min(idx - 1, self.num_slots - 1)

    def first_usable_slot(self, release_time: float) -> int:
        """First 0-based slot in which a flow released at *release_time* may send.

        Mirrors the LP release constraint (paper Eq. 4 / Eq. 17): slot ``t``
        is forbidden when ``release_time >= b_t`` (the slot's end), i.e. the
        first usable slot is the one whose end strictly exceeds the release
        time.
        """
        if release_time < 0:
            raise ValueError("release_time must be non-negative")
        usable = np.nonzero(
            self._bounds[1:] > release_time + relative_tol(release_time, 1e-12)
        )[0]
        if usable.size == 0:
            raise ValueError(
                f"release time {release_time} is at or beyond the grid horizon "
                f"{self.horizon}"
            )
        return int(usable[0])

    def release_mask(self, release_times: np.ndarray) -> np.ndarray:
        """Boolean matrix ``allowed[flow, slot]`` implementing Eq. (4)/(17).

        ``allowed[f, t]`` is true when flow *f* may transmit during slot *t*,
        i.e. when its release time is strictly before the slot's end.
        """
        release = np.asarray(release_times, dtype=float).reshape(-1, 1)
        ends = self._bounds[1:].reshape(1, -1)
        tol = 1e-12 * np.maximum(1.0, np.abs(release))
        return ends > release + tol

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_slots))

    def __len__(self) -> int:
        return self.num_slots

    def __eq__(self, other: object) -> bool:
        """Equality on the canonical (rounded) boundaries.

        Defined together with :meth:`__hash__` from the same canonical
        representation, so equal grids always hash equal — grids can be
        dict keys and members of result-store cache fingerprints.
        """
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return self._canonical.shape == other._canonical.shape and bool(
            np.array_equal(self._canonical, other._canonical)
        )

    def __hash__(self) -> int:
        return hash((self.num_slots, self._canonical.tobytes()))

    def boundary_digest(self) -> str:
        """Hex BLAKE2b digest of the canonical boundaries.

        The stable fingerprint :mod:`repro.store` keys cached results on:
        identical grids (up to the canonical rounding that also backs
        ``__eq__``/``__hash__``) always digest identically, in any process,
        on any platform.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.ascontiguousarray(self._canonical).tobytes())
        return digest.hexdigest()

    def __repr__(self) -> str:
        kind = "uniform" if self.is_uniform else "geometric/custom"
        return (
            f"TimeGrid({kind}, slots={self.num_slots}, horizon={self.horizon:g})"
        )
