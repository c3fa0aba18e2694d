"""Reading the drop path (``Simulator.drop``) back in tests."""

from repro.sim import Simulator


def dropped(sim: Simulator, layer: str, reason: str, **owner: str) -> int:
    """``<layer>/dropped{<owner>,reason}``: 0 when nothing was dropped."""
    metric = sim.metrics.get(layer, "dropped", reason=reason, **owner)
    return 0 if metric is None else metric.value


def drop_total(sim: Simulator) -> int:
    """Every drop counter in *sim*'s registry, summed, whatever its name."""
    return sum(value for key, value in sim.metrics.snapshot().items()
               if "drop" in key.partition("{")[0])
