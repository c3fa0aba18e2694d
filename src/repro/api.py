"""`repro.api`: the one-import facade for building and running scenarios.

Everything in this repository can be driven piecewise — build a
:class:`~repro.sim.engine.Simulator`, wire a testbed, start workloads, run,
then dig through ``sim.trace`` and ``sim.metrics``.  The
:class:`Scenario` builder packages that sequence::

    from repro import Scenario

    result = (Scenario(seed=2026)
              .with_testbed()
              .with_workload(lambda tb: start_traffic(tb))
              .with_step(s(2), lambda tb: tb.visit_dept())
              .run(duration=s(6)))

    result.snapshot["tunnel/encapsulated{iface=vif.ha.router}"]
    result.trace.select("handoff")

The facade adds no behavior of its own: ``Scenario.run()`` performs exactly
the calls a hand-written script would, in the same order, so results are
byte-identical with the manual path for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.config import Config, DEFAULT_CONFIG
from repro.faults import FaultInjector, FaultPlan
from repro.obs.export import format_report, snapshot_to_json
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator, Time
from repro.sim.trace import Trace
from repro.sim.units import s
from repro.testbed.topology import Testbed, build_testbed

#: A workload factory: receives the testbed, returns anything (kept in
#: RunResult.workloads under the name it was registered with).
WorkloadFactory = Callable[[Testbed], Any]


@dataclass
class RunResult:
    """Everything a finished scenario run produced."""

    sim: Simulator
    testbed: Optional[Testbed]
    #: Return values of the registered workload factories, by name.
    workloads: Dict[str, Any] = field(default_factory=dict)
    #: Flat metrics snapshot taken at the end of the run.
    snapshot: Dict[str, object] = field(default_factory=dict)
    #: The armed fault injector, when the scenario declared a fault plan
    #: (``Scenario.with_faults``); ``None`` otherwise.
    fault_injector: Optional[FaultInjector] = None

    @property
    def trace(self) -> Trace:
        """The simulation's structured trace."""
        return self.sim.trace

    @property
    def metrics(self) -> MetricsRegistry:
        """The live registry (the snapshot is its end-of-run copy)."""
        return self.sim.metrics

    def snapshot_json(self) -> str:
        """Canonical JSON of the snapshot (same-seed runs match exactly)."""
        return snapshot_to_json(self.sim.metrics)

    def report(self) -> str:
        """Human-readable metrics report."""
        return format_report(self.sim.metrics)


class Scenario:
    """Builder for a deterministic simulation run.

    The builder is lazy: nothing is constructed until :meth:`run`, so a
    ``Scenario`` can be declared once and run never or once (it is not
    reusable — ``run()`` consumes it, because simulations are stateful).
    """

    def __init__(self, seed: int = 0, *, config: Optional[Config] = None) -> None:
        self.seed = seed
        self.config = config if config is not None else DEFAULT_CONFIG
        self._testbed_kwargs: Optional[Dict[str, Any]] = None
        self._workloads: List[tuple] = []      # (name, factory)
        self._steps: List[tuple] = []          # (at_ns, fn, label)
        self._fault_plan: Optional[FaultPlan] = None
        self._ran = False

    # ------------------------------------------------------------- declaration

    def with_testbed(self, **build_kwargs: Any) -> "Scenario":
        """Build the Figure 5 testbed at run time.

        Keyword arguments are passed straight to
        :func:`repro.testbed.topology.build_testbed` (e.g.
        ``separate_home_agent=True``, ``with_radio_foreign_agent=True``).
        """
        self._testbed_kwargs = dict(build_kwargs)
        return self

    def with_workload(self, factory: WorkloadFactory,
                      name: Optional[str] = None) -> "Scenario":
        """Run *factory(testbed)* at time zero; keep its return value.

        The value lands in ``RunResult.workloads[name]`` (default name:
        ``workload0``, ``workload1``, ... in registration order).
        """
        self._workloads.append(
            (name if name is not None else f"workload{len(self._workloads)}",
             factory))
        return self

    def with_config(self, **overrides: Any) -> "Scenario":
        """Override calibrated constants for this run.

        Keyword arguments are :class:`~repro.config.Config` field names,
        applied via ``Config.with_overrides`` on top of whatever config the
        scenario already holds (the constructor's, or earlier
        ``with_config`` calls — later calls win field-by-field)::

            Scenario(seed=7).with_config(tcp_congestion_control="cubic",
                                         tcp_sack=True,
                                         tcp_flow_control=True,
                                         tcp_recv_buffer=2048)

        Equivalent to passing ``config=DEFAULT_CONFIG.with_overrides(...)``
        to the constructor, so results stay byte-identical with the manual
        path.
        """
        self.config = self.config.with_overrides(**overrides)
        return self

    def with_faults(self, plan: FaultPlan) -> "Scenario":
        """Arm a deterministic fault plan against the testbed.

        At run time — after workload factories, before scheduled steps —
        the plan is bound with ``FaultInjector.for_testbed`` and armed,
        exactly as a hand-written script would.  The injector lands in
        ``RunResult.fault_injector``.  Requires ``with_testbed()``.
        """
        self._fault_plan = plan
        return self

    def with_step(self, at: Time, fn: Callable[[Testbed], None],
                  label: str = "scenario-step") -> "Scenario":
        """Schedule *fn(testbed)* at virtual time *at* (mobility moves)."""
        self._steps.append((at, fn, label))
        return self

    # --------------------------------------------------------------- execution

    def run(self, duration: Time = s(10)) -> RunResult:
        """Build everything, run for *duration*, and snapshot the metrics."""
        if self._ran:
            raise RuntimeError("a Scenario can only run once; build a new one")
        self._ran = True
        sim = Simulator(seed=self.seed)
        testbed: Optional[Testbed] = None
        if self._testbed_kwargs is not None:
            testbed = build_testbed(sim, config=self.config,
                                    **self._testbed_kwargs)
        result = RunResult(sim=sim, testbed=testbed)
        for name, factory in self._workloads:
            result.workloads[name] = factory(testbed)
        if self._fault_plan is not None:
            if testbed is None:
                raise RuntimeError("with_faults() requires with_testbed()")
            result.fault_injector = FaultInjector.for_testbed(
                testbed, self._fault_plan)
            result.fault_injector.arm()
        for at, fn, label in self._steps:
            sim.call_at(at, lambda fn=fn: fn(testbed), label=label)
        sim.run_for(duration)
        result.snapshot = sim.metrics.snapshot()
        return result
