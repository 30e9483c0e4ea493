"""The shared seeded scheduler: livelock guard and crash→restart step."""

import itertools

import pytest

from repro.errors import ConcurrencyError
from repro.recovery import Durability, SimDisk
from repro.sim import MAX_STEPS, World
from repro.sqldb import Database

LINK = dict(lock_timeout_s=300.0, latency_s=0.05, dtr_kbit_s=512.0)


class TestLivelockGuard:
    def test_never_finishing_client_raises_after_max_steps(self):
        world = World(Database(), 1, **LINK)
        resumptions = itertools.count()

        def spinner():
            while True:
                next(resumptions)
                yield "spin"

        with pytest.raises(ConcurrencyError, match="livelock"):
            world.interleave({0: spinner()}, seed=0)
        assert next(resumptions) == MAX_STEPS


class TestCrashRestart:
    def test_crashed_server_is_restarted_before_the_next_pick(self):
        durability = Durability(SimDisk())
        world = World(durability.open(), 1, durability=durability, **LINK)

        def crasher():
            world.server.crash()
            yield "crash"
            world.server.crash()
            yield "crash-again"

        schedule = world.interleave({0: crasher()}, seed=0)
        assert schedule.log == [
            "0:0:crash",
            "1:restart",
            "1:0:crash-again",
            "2:restart",
            "2:0:done",
        ]
        assert schedule.restarts == 2
        assert not world.server.crashed
        # The first restart's recovery report is kept, not the last one.
        assert schedule.recovery is not None
        assert schedule.recovery is not durability.last_report
