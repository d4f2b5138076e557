import numpy as np
import pytest

from nufft1d import DuplicateNodeError, validate_grid
from nufft1d.bench import jittered
from nufft1d.gridding import GriddingKernel


def _pairs(P, rng):
    # nodes 0.1/P apart, one pair every 2/P
    first = np.arange(0, P, 2) / P + rng.uniform(0, 1 / P, P // 2)
    return validate_grid(np.stack([first, first + 0.1 / P], axis=1).ravel())


def _gap(g):
    # spacing shrunk by (g - 1)/P, so the wrap-around gap spans g spacings
    return lambda P, rng: validate_grid(
        (np.arange(P) / P) * (1 - (g - 1) / P) + rng.uniform(0, 0.3 / P, P))


def _iid(P, rng):
    while True:
        try:
            return validate_grid(np.sort(rng.uniform(0, 1, P)))
        except DuplicateNodeError:
            pass


# The node families the tests draw, by name: each maps (P, rng) to a grid of P nodes.
NODE_FAMILIES = {
    "jitter-0.6": jittered,
    "jitter-0.99": lambda P, rng: jittered(P, rng, 0.99),
    "pairs": _pairs,
    **{f"gap-{g}": _gap(g) for g in (2, 3, 4, 6, 8)},
    "iid": _iid,
}


@pytest.fixture
def geometry_calls(monkeypatch):
    """Kernel sizes of every ``GriddingKernel.spread_geometry`` call.

    One call per block of ``gridding._SPREAD_BLOCK`` instants: one per stored
    spreader, or per transform on a streamed one, on a grid of one block.
    """
    calls = []
    geometry = GriddingKernel.spread_geometry

    def counted(self, instants):
        calls.append(self.size)
        return geometry(self, instants)

    monkeypatch.setattr(GriddingKernel, "spread_geometry", counted)
    return calls
