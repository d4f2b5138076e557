import pytest

from nufft1d.gridding import GriddingKernel


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
