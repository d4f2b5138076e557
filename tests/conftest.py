import pytest

from nufft1d import GriddingKernel


@pytest.fixture
def geometry_calls(monkeypatch):
    """Kernel sizes of every ``GriddingKernel.spread_geometry`` call, one per spreader."""
    calls = []
    geometry = GriddingKernel.spread_geometry

    def counted(self, instants):
        calls.append(self.size)
        return geometry(self, instants)

    monkeypatch.setattr(GriddingKernel, "spread_geometry", counted)
    return calls
