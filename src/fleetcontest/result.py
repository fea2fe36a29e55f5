"""Shared result type for the equilibrium solvers."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .game import SUPPORT_RTOL, DualCertificate, GameSpec, JointStrategy
from .interior import InteriorSolveTrace

#: The four two-region boundary families, each naming the player pinned
#: into one region and the region it leaves empty (A1: a leaves region 1).
FAMILIES = ("A1", "A2", "B1", "B2")

#: Location tags: the interior, one of the two-region boundary families,
#: or a boundary point of a game with another region count.
LOCATIONS = ("interior", *FAMILIES, "boundary")


def location_tags(fleets: np.ndarray, x: np.ndarray) -> list[str]:
    """Location tags of N x 2 x m allocations against N x 2 fleets.

    Under the SUPPORT_RTOL rule a row is "interior" when no component is
    empty; for two regions the first of A1, A2, B1, B2 whose pinned
    player's named region is empty; "boundary" otherwise.
    """
    empty = (x <= SUPPORT_RTOL * fleets[:, :, None]).reshape(len(x), -1)
    some = empty.any(axis=1).tolist()
    if x.shape[2] != 2:
        return ["boundary" if e else "interior" for e in some]
    return [FAMILIES[j] if e else "interior" for e, j in zip(some, empty.argmax(axis=1).tolist())]


@dataclass(frozen=True)
class EquilibriumResult:
    """A solved equilibrium of spec with its multipliers and quality measure.

    solve_batch builds one per solved row of the stacked solve, which has
    already accepted the row; iterated_best_response builds its own.
    ne_residual is the largest unilateral payoff improvement either
    player could still gain; it is computed on first read and kept.
    trace is present for interior solves. iterations counts balance
    evaluations of the interior root find, kernel evaluations of the
    price solve, or rounds of the iterated_best_response oracle;
    converged is False only when that oracle hit its cap.
    """

    strategy: JointStrategy
    duals: DualCertificate
    location: str
    spec: GameSpec
    trace: InteriorSolveTrace | None = None
    converged: bool = True
    iterations: int = 0

    def __post_init__(self):
        if self.location not in LOCATIONS:
            raise ValidationError(f"unknown location tag {self.location!r}")

    @cached_property
    def ne_residual(self) -> float:
        # verify imports this module, so its checks are looked up at first read.
        from . import verify

        return verify.ne_residual(self.spec, self.strategy)
