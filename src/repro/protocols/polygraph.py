"""Polygraph-style accountable BFT baseline (Civit et al. 2021).

The Figure-3 comparison point that *does* provide accountability at
the same asymptotic cost as pRFT: a pBFT-shaped protocol whose commit
messages carry the full prepare-vote justification (O(κ·n) per
message), letting every replica run the double-sign detector and burn
provably guilty players.  Its threat model is weaker than pRFT's —
byzantine-only t < n/3, no rational incentives — which is the paper's
point: pRFT matches Polygraph's complexity while tolerating
t < n/4, t + k < n/2 with rational players.

:class:`PolygraphReplica` is :class:`~repro.protocols.pbft.PBFTReplica`
under its own phase strings and message types.  Proposals and prepares
are pBFT's ``PrePrepare`` and ``PhaseVote`` under Polygraph's names
(:class:`PgPropose`, :class:`PgPrepare`): deviating strategies key
per-message draws on the type name, so the names are part of a run's
behaviour.  Only the commit (:class:`PgCommit`) and the view change
(:class:`PgViewChange`) carry evidence, and the replica overrides only
pBFT's evidence hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Set

from repro.agents.player import Player
from repro.core.messages import (
    Justification,
    SignedStatement,
    build_justification,
    justification_size,
    make_statement,
    verify_justification,
    verify_statement,
)
from repro.core.pof import FraudDetector, FraudProof
from repro.crypto.aggregate import AggregateQC
from repro.protocols.base import ProtocolConfig, ProtocolContext
from repro.protocols.pbft import PBFTReplica, PhaseVote, PrePrepare

PG_PROPOSE = "pg-propose"
PG_PREPARE = "pg-prepare"
PG_COMMIT = "pg-commit"
PG_VIEW_CHANGE = "pg-view-change"


@dataclass(frozen=True)
class PgPropose(PrePrepare):
    """Polygraph's proposal: a pBFT pre-prepare."""


@dataclass(frozen=True)
class PgPrepare(PhaseVote):
    """Polygraph's prepare vote: a pBFT phase vote."""


@dataclass(frozen=True)
class PgCommit:
    """Commit with the prepare-quorum justification — the accountable bit.

    ``prepares`` is the justification in either wire representation
    (statement set, or one AggregateQC under ``aggregate_certs``).
    """

    statement: SignedStatement
    prepares: Justification
    block: Optional[Any] = None

    @property
    def round_number(self) -> int:
        return self.statement.round_number

    @property
    def digest(self) -> str:
        return self.statement.digest

    @property
    def size_bytes(self) -> int:
        block_size = self.block.size_estimate_bytes if self.block is not None else 0
        return self.statement.size_bytes + justification_size(self.prepares) + block_size


@dataclass(frozen=True)
class PgViewChange:
    statement: SignedStatement
    evidence: FrozenSet[SignedStatement] = frozenset()

    @property
    def round_number(self) -> int:
        return self.statement.round_number

    @property
    def digest(self) -> None:
        return None

    @property
    def size_bytes(self) -> int:
        return self.statement.size_bytes + sum(e.size_bytes for e in self.evidence)


class PolygraphReplica(PBFTReplica):
    """Accountable pBFT: justification-carrying commits + fraud burning."""

    PREPREPARE = PG_PROPOSE
    PREPARE = PG_PREPARE
    COMMIT = PG_COMMIT
    VIEW_CHANGE = PG_VIEW_CHANGE
    PREPREPARE_MESSAGE = PgPropose
    PREPARE_MESSAGE = PgPrepare
    COMMIT_MESSAGE = PgCommit
    VIEW_CHANGE_MESSAGE = PgViewChange

    def __init__(self, player: Player, config: ProtocolConfig, ctx: ProtocolContext) -> None:
        super().__init__(player, config, ctx)
        # Fraud evidence is persisted (written through on receipt).
        self.detector = FraudDetector(registry=ctx.registry)
        self.reported_guilty: Set[int] = set()

    # ------------------------------------------------------------------
    def _absorb(self, statement: SignedStatement) -> None:
        proof = self.detector.absorb(statement)
        if proof is not None:
            self._punish(proof)

    def _absorb_justification(self, justification: Justification) -> None:
        """Absorb a quorum justification's evidence in either shape.

        Aggregates are verified by the detector before expansion and
        memoized per slot, so re-absorption of a circulating
        certificate is O(1) after first sight.
        """
        if isinstance(justification, AggregateQC):
            for proof in self.detector.absorb_aggregate(justification):
                self._punish(proof)
            return
        for statement in justification:
            self._absorb(statement)

    def _punish(self, proof: FraudProof) -> None:
        accused = proof.accused
        if accused in self.reported_guilty:
            return
        if not self.strategy.report_fraud(self, {accused}):
            return
        self.reported_guilty.add(accused)
        self.ctx.collateral.burn(accused, reason=f"polygraph-round-{proof.round_number}")
        self.trace("burn", accused=accused, round=proof.round_number)

    # ------------------------------------------------------------------
    # pBFT evidence hooks
    # ------------------------------------------------------------------
    def _absorb_evidence(self, message: Any) -> None:
        if isinstance(message, PgViewChange):
            # The view-change vote signs no value; the statements it
            # carries do.
            for statement in message.evidence:
                if verify_statement(self.ctx.registry, statement):
                    self._absorb(statement)
            return
        self._absorb(message.statement)
        if isinstance(message, PgCommit):
            self._absorb_justification(message.prepares)

    def _commit_justified(self, message: PgCommit) -> bool:
        return verify_justification(
            self.ctx.registry,
            message.prepares,
            phase=PG_PREPARE,
            round_number=message.round_number,
            digest=message.digest,
            minimum=self.config.quorum_size,
        )

    def _make_commit(self, state: Any, digest: str) -> Optional[PgCommit]:
        """Our commit with the prepare quorum we hold, or None below quorum."""
        prepares = state.prepares.get(digest, {})
        if len(prepares) < self.config.quorum_size:
            return None
        statement = make_statement(self.keypair, PG_COMMIT, state.number, digest)
        return PgCommit(
            statement=statement,
            prepares=build_justification(prepares.values(), self.ctx.aggregate_certs),
            block=state.blocks.get(digest),
        )

    def _make_view_change(self, round_number: int, state: Optional[Any] = None) -> PgViewChange:
        """Our view change, carrying every prepare and commit we hold for
        the round when it timed out."""
        evidence: Set[SignedStatement] = set()
        if state is not None:
            for by_signer in state.prepares.values():
                evidence.update(by_signer.values())
            for by_signer in state.commits.values():
                evidence.update(by_signer.values())
        statement = make_statement(self.keypair, PG_VIEW_CHANGE, round_number, "")
        return PgViewChange(statement=statement, evidence=frozenset(evidence))

    def on_halted_payload(self, sender: int, payload: Any) -> None:
        """Accountability outlives the round and the run: keep absorbing
        evidence — and keep serving catch-up (decided blocks stay
        available)."""
        statement = getattr(payload, "statement", None)
        if isinstance(statement, SignedStatement) and verify_statement(self.ctx.registry, statement):
            self._absorb(statement)
        for attr in ("prepares", "evidence"):
            bundle = getattr(payload, attr, None)
            if isinstance(bundle, AggregateQC):
                self._absorb_justification(bundle)
            elif bundle:
                for stmt in bundle:
                    if verify_statement(self.ctx.registry, stmt):
                        self._absorb(stmt)
        super().on_halted_payload(sender, payload)


def polygraph_factory(
    player: Player, config: ProtocolConfig, ctx: ProtocolContext
) -> PolygraphReplica:
    """Replica factory for :class:`~repro.protocols.spec.RunSpec` and
    :func:`~repro.protocols.runner.run`."""
    return PolygraphReplica(player, config, ctx)
