"""Baseline protocols: pBFT, HotStuff, Polygraph, TRAP."""

import pytest

from repro.agents.strategies import (
    AbstainStrategy,
    BaitingPolicy,
    EquivocateStrategy,
    TrapRationalStrategy,
)
from repro.analysis.robustness import check_robustness
from repro.core.replica import prft_factory
from repro.experiments.fuzz import generate_trial
from repro.gametheory.payoff import PlayerType
from repro.gametheory.states import SystemState
from repro.net.delays import FixedDelay
from repro.net.partition import Partition, PartitionSchedule
from repro.protocols.base import ProtocolConfig
from repro.protocols.hotstuff import hotstuff_factory
from repro.protocols.pbft import pbft_factory
from repro.protocols.polygraph import polygraph_factory
from repro.protocols.runner import NetworkSpec, RunSpec, run
from repro.protocols.trap import trap_factory

from tests.conftest import roster

ALL_BASELINES = [
    ("pbft", pbft_factory),
    ("hotstuff", hotstuff_factory),
    ("polygraph", polygraph_factory),
    ("trap", trap_factory),
]


def _run(factory, players, n=None, max_rounds=3, partitions=None, max_time=10_000.0, **overrides):
    n = n if n is not None else len(players)
    config = ProtocolConfig.for_bft(n=n, max_rounds=max_rounds, **overrides)
    return run(RunSpec(
        factory=factory,
        players=tuple(players),
        config=config,
        network=NetworkSpec(delay_model=FixedDelay(1.0), partitions=partitions),
        max_time=max_time,
    ))


class TestHonestRuns:
    @pytest.mark.parametrize("name,factory", ALL_BASELINES)
    def test_all_rounds_finalize(self, name, factory):
        result = _run(factory, roster(7))
        assert result.system_state() is SystemState.HONEST
        assert result.final_block_count() == 3
        assert check_robustness(result).robust

    @pytest.mark.parametrize("name,factory", ALL_BASELINES)
    def test_crash_fault_tolerated(self, name, factory):
        players = roster(7, byzantine_ids=[6])
        players[6].strategy = AbstainStrategy()
        result = _run(factory, players, timeout=10.0)
        assert check_robustness(result).agreement
        assert result.final_block_count() >= 2


class TestMessagePatterns:
    def test_hotstuff_linear_vs_pbft_quadratic(self):
        n = 12
        pbft = _run(pbft_factory, roster(n), max_rounds=2)
        hotstuff = _run(hotstuff_factory, roster(n), max_rounds=2)
        assert hotstuff.metrics.total_messages < pbft.metrics.total_messages / 2

    def test_accountability_costs_bytes(self):
        """Figure 3's size column: polygraph (accountable) sends more
        bytes than pbft (unaccountable) at the same message count."""
        n = 10
        pbft = _run(pbft_factory, roster(n), max_rounds=2)
        polygraph = _run(polygraph_factory, roster(n), max_rounds=2)
        assert polygraph.metrics.total_bytes > pbft.metrics.total_bytes

    def test_prft_on_par_with_polygraph(self):
        """pRFT's overhead stays within a small constant of Polygraph."""
        n = 10
        config_pg = ProtocolConfig.for_bft(n=n, max_rounds=2)
        config_prft = ProtocolConfig.for_prft(n=n, max_rounds=2)
        polygraph = run(RunSpec(
            factory=polygraph_factory, players=tuple(roster(n)), config=config_pg
        ))
        prft = run(RunSpec(
            factory=prft_factory, players=tuple(roster(n)), config=config_prft
        ))
        ratio = prft.metrics.total_bytes / polygraph.metrics.total_bytes
        assert ratio < 4.0


class TestPbftSilentFork:
    """The contrast experiment: under violated bounds pBFT forks with
    no penalty, Polygraph forks but burns, pRFT's reveal phase blocks
    finalisation entirely (with valid t0)."""

    def _attack(self, factory, t0):
        n = 9
        players = roster(n, rational_ids=[0, 1], byzantine_ids=[2])
        shared = {}
        coll = {0, 1, 2}
        ga, gb = {3, 4, 5}, {6, 7, 8}
        for pid in coll:
            players[pid].strategy = EquivocateStrategy(
                group_a=ga, group_b=gb, colluders=coll, shared_sides=shared
            )
        config = ProtocolConfig(n=n, t0=t0, max_rounds=1, timeout=50.0)
        partitions = PartitionSchedule()
        partitions.add(Partition.of(ga, gb), 0.0, 40.0)
        return run(RunSpec(
            factory=factory,
            players=tuple(players),
            config=config,
            network=NetworkSpec(delay_model=FixedDelay(1.0), partitions=partitions),
            max_time=60.0,
        ))

    def test_pbft_forks_silently(self):
        result = self._attack(pbft_factory, t0=3)
        assert result.system_state() is SystemState.FORK
        assert result.penalised_players() == set()

    def test_polygraph_forks_but_burns(self):
        result = self._attack(polygraph_factory, t0=3)
        assert result.system_state() is SystemState.FORK
        assert result.penalised_players() == {0, 1, 2}

    def test_prft_blocks_fork_at_valid_t0(self):
        result = self._attack(prft_factory, t0=2)
        assert result.system_state() is not SystemState.FORK


class TestTrapBaiting:
    """TRAP's fork/bait arithmetic (the protocol side of Theorem 3)."""

    def _trap_run(self, policies):
        n = 10  # t0 = ceil(10/3)-1 = 3, quorum 7
        rational_ids, byz_ids = [1, 2, 4], [0]  # leader of round 0 is byzantine
        players = []
        shared = {}
        honest = [i for i in range(n) if i not in rational_ids and i not in byz_ids]
        ga, gb = set(honest[:3]), set(honest[3:])
        coll = set(rational_ids) | set(byz_ids)
        from repro.agents.player import (
            byzantine_player,
            honest_player,
            rational_player,
        )

        for i in range(n):
            if i in rational_ids:
                players.append(
                    rational_player(
                        i,
                        PlayerType.FORK_SEEKING,
                        TrapRationalStrategy(
                            policies[i], group_a=ga, group_b=gb, colluders=coll, shared_sides=shared
                        ),
                    )
                )
            elif i in byz_ids:
                players.append(
                    byzantine_player(
                        i,
                        EquivocateStrategy(
                            group_a=ga, group_b=gb, colluders=coll, shared_sides=shared
                        ),
                    )
                )
            else:
                players.append(honest_player(i))
        partitions = PartitionSchedule()
        partitions.add(Partition.of(ga, gb), 0.0, 50.0)
        config = ProtocolConfig.for_bft(n=n, max_rounds=1, timeout=60.0)
        return run(RunSpec(
            factory=trap_factory,
            players=tuple(players),
            config=config,
            network=NetworkSpec(delay_model=FixedDelay(1.0), partitions=partitions),
            max_time=80.0,
        ))

    def test_all_suppress_forks_unpunished(self):
        policies = {1: BaitingPolicy.SUPPRESS, 2: BaitingPolicy.SUPPRESS, 4: BaitingPolicy.SUPPRESS}
        result = self._trap_run(policies)
        assert result.system_state() is SystemState.FORK
        assert result.penalised_players() == set()

    def test_enough_baiters_defeat_fork(self):
        policies = {1: BaitingPolicy.BAIT, 2: BaitingPolicy.SUPPRESS, 4: BaitingPolicy.SUPPRESS}
        result = self._trap_run(policies)
        assert result.system_state() is not SystemState.FORK

    def test_baiters_generate_bait_events(self):
        policies = {1: BaitingPolicy.BAIT, 2: BaitingPolicy.SUPPRESS, 4: BaitingPolicy.SUPPRESS}
        result = self._trap_run(policies)
        baits = result.trace.events("bait")
        assert baits  # fraud was provable and reported


class TestPbftFamilyViewChangeSafety:
    """A known safety bug shared by pBFT, Polygraph and TRAP.

    Fuzz campaign 0, trial 68: n=9, every replica honest, a partition
    over [0.6, 29.0], duplicated links, replica 8 crashed over
    [4.1, 20.3].  pRFT and HotStuff keep agreement on it.
    """

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "pBFT-family view change carries no prepared certificate: replicas "
            "0-7 broadcast the round-0 view change, yet still sign round-0 "
            "commits when late prepares arrive after the partition heals; "
            "replica 8 finalizes the round-0 block while the rest finalize a "
            "round-1 block on genesis, because the next leader cannot "
            "re-propose the prepared block"
        ),
    )
    @pytest.mark.parametrize("protocol", ["pbft", "polygraph", "trap"])
    def test_campaign_trial_68_keeps_agreement(self, protocol):
        trial = generate_trial(0, 68, "safe")
        result = trial.scenario.with_params(protocol=protocol).run(seed=trial.seed)
        assert check_robustness(result).agreement
        assert not result.oracle.violated_names
