"""Declarative chaos harness (repro.resilience.chaos).

Scenario-data validation plus one smoke-scaled execution of every
canonical scenario.  The full-volume suite runs behind
``scripts/soak_resilience.py``; here each scenario is scaled down so the
whole module stays tier-1 sized while still killing real workers,
corrupting real segments, and reaping a real SIGKILL'd orphan.
"""

import dataclasses
import glob
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.backends import SharedArrays
from repro.resilience import (
    SCENARIOS,
    ChaosScenario,
    ScenarioOutcome,
    run_scenario,
    scenario_by_name,
)
from repro.resilience import chaos
from repro.resilience.chaos import _leaked_segments, _shm_segments
from repro.service import ServiceConfig

pytestmark = [pytest.mark.soak, pytest.mark.chaos, pytest.mark.service]


@pytest.fixture(autouse=True)
def no_leaked_segments():
    # Segments a live foreign process owns are not this test's leaks.
    before = _shm_segments()
    yield
    leaked = _leaked_segments(before)
    assert not leaked, f"leaked shared segments: {leaked}"


class TestScenarioData:
    def test_canonical_suite_shape(self):
        names = [s.name for s in SCENARIOS]
        assert len(names) == len(set(names)), "duplicate scenario names"
        assert len(SCENARIOS) >= 8
        # Every fault axis the harness knows is exercised somewhere.
        assert any(s.kill_probability > 0 for s in SCENARIOS)
        assert any(s.fault_probability > 0 for s in SCENARIOS)
        assert any(s.deadline_storm for s in SCENARIOS)
        assert any(s.queue_flood for s in SCENARIOS)
        for attack in ("unlink", "corrupt", "orphan"):
            assert any(s.segment_attack == attack for s in SCENARIOS)
        # The network axes drive the real HTTP gateway over sockets.
        assert any(s.gateway and s.network_attack is None for s in SCENARIOS)
        for attack in (
            "conn_flood", "slow_client", "gateway_kill_mid_request",
            "cache_poison_guard",
        ):
            assert any(s.network_attack == attack for s in SCENARIOS)
        # Distinct seeds: no two scenarios replay the same chaos stream.
        seeds = [s.seed for s in SCENARIOS]
        assert len(seeds) == len(set(seeds))

    def test_scenario_by_name(self):
        assert scenario_by_name("baseline") is SCENARIOS[0]
        with pytest.raises(ValueError, match="nope"):
            scenario_by_name("nope")

    def test_scaled(self):
        s = scenario_by_name("queue-flood")
        assert s.scaled(0.5).requests == 10
        assert s.scaled(0.01).requests == 2  # floor of 2
        assert s.scaled(2.0).requests == 40
        assert s.scaled(1.0) == dataclasses.replace(s)
        with pytest.raises(ValueError):
            s.scaled(0.0)

    def test_service_config_mapping(self):
        s = scenario_by_name("worker-kill-pre")
        config = s.service_config()
        assert isinstance(config, ServiceConfig)
        assert config.workers == s.workers
        assert config.max_retries == s.max_retries
        assert config.kill_probability == s.kill_probability
        assert config.kill_point == s.kill_point
        assert config.chaos_seed == s.seed
        # Overrides win over the scenario mapping.
        assert s.service_config(workers=7).workers == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosScenario("bad", "zero requests", requests=0)
        with pytest.raises(ValueError):
            ChaosScenario("bad", "unknown attack", segment_attack="melt")


class TestScenarioOutcome:
    def test_ok_requires_completions_and_cleanliness(self):
        good = ScenarioOutcome("s", requests=4, completed=4)
        assert good.ok
        assert ScenarioOutcome("s", requests=4, completed=0).ok is False
        assert ScenarioOutcome(
            "s", requests=4, completed=4, untyped_failures=["boom"]
        ).ok is False
        assert ScenarioOutcome(
            "s", requests=4, completed=4, leaked_segments=["repro-x"]
        ).ok is False
        assert ScenarioOutcome(
            "s", requests=4, completed=4, mismatches=["req 1"]
        ).ok is False

    def test_typed_failures_and_shed_are_acceptable(self):
        o = ScenarioOutcome("s", requests=6, completed=3, shed=1,
                            failures={"DeadlineExceededError": 2})
        assert o.ok
        assert o.failed == 2

    def test_as_dict(self):
        o = ScenarioOutcome("s", requests=2, completed=2,
                            failures={"WorkerCrashError": 1})
        d = o.as_dict()
        assert d["scenario"] == "s" and d["ok"] is True
        assert d["failures"] == {"WorkerCrashError": 1}


@pytest.mark.parametrize("name", [s.name for s in SCENARIOS])
def test_scenario_smoke(name):
    """Every canonical scenario, scaled down, must hold its invariants."""
    outcome = run_scenario(scenario_by_name(name).scaled(0.3))
    assert outcome.ok, (
        f"{name}: untyped={outcome.untyped_failures} "
        f"mismatches={outcome.mismatches} leaked={outcome.leaked_segments} "
        f"strays={outcome.stray_processes} completed={outcome.completed}"
    )
    assert outcome.completed >= 1


def test_segment_orphan_actually_reaps():
    """The orphan scenario's evidence: reaped names were real segments."""
    outcome = run_scenario(scenario_by_name("segment-orphan").scaled(0.5))
    assert outcome.ok
    assert len(outcome.reaped_segments) >= 1
    for name in outcome.reaped_segments:
        assert name.startswith("repro-")
        assert not glob.glob(f"/dev/shm/{name}")


_FOREIGN_OWNER = """
import sys
import numpy as np
from repro.backends import SharedArrays
shared = SharedArrays.create({"x": np.arange(8)})
print(shared.name, flush=True)
sys.stdin.readline()
shared.unlink()
"""


def test_leak_check_blames_only_its_own_segments(monkeypatch, tmp_path):
    """A segment a live foreign process creates mid-run is not a leak;
    a segment the run creates and never unlinks still is."""
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(chaos.__file__) + "/../..",
                    env.get("PYTHONPATH", "")) if p
    )
    foreign = subprocess.Popen(
        [sys.executable, "-c", _FOREIGN_OWNER],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )
    own = []

    def leaky_run(scenario, seed_offset):
        own.append(SharedArrays.create({"y": np.arange(4)}))
        foreign_name = foreign.stdout.readline().strip()
        assert foreign_name.startswith("repro-")
        return ScenarioOutcome(scenario.name, scenario.requests, completed=1)

    monkeypatch.setattr(chaos, "_run_service", leaky_run)
    try:
        outcome = run_scenario(scenario_by_name("baseline"))
        assert outcome.leaked_segments == [own[0].name]
    finally:
        for shared in own:
            shared.unlink()
        foreign.communicate("done\n", timeout=30)


def test_queue_flood_sheds_typed():
    outcome = run_scenario(scenario_by_name("queue-flood"))
    assert outcome.ok
    assert outcome.shed >= 1
    assert outcome.completed + outcome.shed + outcome.failed == outcome.requests


def test_run_scenario_seed_offset_changes_stream():
    s = scenario_by_name("baseline").scaled(0.3)
    a = run_scenario(s, seed_offset=0)
    b = run_scenario(s, seed_offset=1)
    assert a.ok and b.ok
    assert a.requests == b.requests
