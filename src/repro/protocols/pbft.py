"""pBFT baseline (Castro & Liskov 1999), simulation-grade.

Three all-to-all phases per round — PrePrepare (leader), Prepare,
Commit — with quorum n − t0 (the classic 2f + 1 at n = 3f + 1).
Finality is immediate on the commit quorum; there is **no
accountability**: messages carry no justification sets, so a
double-signer is never provably exposed and never loses collateral.
This is the Figure-3 comparison point with O(κ) message size, and the
foil for pRFT's reveal phase in the robustness experiments: under
violated bounds pBFT forks *silently*.

The ``aggregate_certs`` crypto axis is an identity here: pBFT carries
no quorum certificates on the wire (each replica counts the prepares
and commits it received directly), so there is nothing to aggregate
and runs are bit-for-bit identical with the axis on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Set

from repro.agents.player import Player
from repro.core.messages import (
    SignedStatement,
    make_statement,
    verify_statement,
)
from repro.ledger.block import Block
from repro.ledger.validation import ADVERSARIAL_MARKER_PREFIX
from repro.protocols.base import BaseReplica, ProtocolConfig, ProtocolContext, SlotState

PREPREPARE = "pbft-preprepare"
PREPARE = "pbft-prepare"
COMMIT = "pbft-commit"
VIEW_CHANGE = "pbft-view-change"


@dataclass(frozen=True)
class PrePrepare:
    block: Any
    statement: SignedStatement

    @property
    def round_number(self) -> int:
        return self.statement.round_number

    @property
    def digest(self) -> str:
        return self.statement.digest

    @property
    def size_bytes(self) -> int:
        return self.block.size_estimate_bytes + self.statement.size_bytes


@dataclass(frozen=True)
class PhaseVote:
    """A Prepare or Commit vote: statement only, O(κ) size."""

    statement: SignedStatement
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
        return self.statement.size_bytes + block_size


@dataclass(frozen=True)
class PbftViewChange:
    statement: SignedStatement

    @property
    def round_number(self) -> int:
        return self.statement.round_number

    @property
    def digest(self) -> None:
        return None

    @property
    def size_bytes(self) -> int:
        return self.statement.size_bytes


@dataclass
class _PbftRound(SlotState):
    sent_preprepare: Optional[PrePrepare] = None
    blocks: Dict[str, Block] = field(default_factory=dict)
    prepared_digests: Set[str] = field(default_factory=set)
    committed_digests: Set[str] = field(default_factory=set)
    prepares: Dict[str, Dict[int, SignedStatement]] = field(default_factory=dict)
    commits: Dict[str, Dict[int, SignedStatement]] = field(default_factory=dict)
    view_changes: Dict[int, SignedStatement] = field(default_factory=dict)
    view_change_sent: bool = False
    decided_digest: Optional[str] = None


class PBFTReplica(BaseReplica):
    """pBFT state machine on the shared replica framework.

    Subclasses that add accountability (Polygraph, and TRAP through it)
    rename the phases and message types and override the evidence hooks:
    :meth:`_absorb_evidence`, :meth:`_commit_justified`,
    :meth:`_make_commit`, :meth:`_make_view_change` and
    :meth:`on_halted_payload`.
    """

    ROUND_STATE = _PbftRound
    #: Phase strings; each doubles as the message type on the wire.
    PREPREPARE = PREPREPARE
    PREPARE = PREPARE
    COMMIT = COMMIT
    VIEW_CHANGE = VIEW_CHANGE
    #: Message types of the four phases.
    PREPREPARE_MESSAGE: ClassVar[type] = PrePrepare
    PREPARE_MESSAGE: ClassVar[type] = PhaseVote
    COMMIT_MESSAGE: ClassVar[type] = PhaseVote
    VIEW_CHANGE_MESSAGE: ClassVar[type] = PbftViewChange

    # ------------------------------------------------------------------
    def _build_block(self, round_number: int, conflict_marker: bool = False) -> Block:
        limit = self.block_tx_limit()
        # Transactions inside acked-but-unfinalised window blocks are
        # spoken for: a speculative slot must not re-propose them.
        candidates = self.mempool.select(limit, censor=self._inflight_tx_ids())
        transactions = self.strategy.select_transactions(self, candidates)
        if conflict_marker:
            from repro.ledger.transaction import Transaction

            marker = Transaction(tx_id=f"{ADVERSARIAL_MARKER_PREFIX}r{round_number}-p{self.player_id}")
            transactions = [marker] + list(transactions[: max(0, limit - 1)])
        return Block(
            round_number=round_number,
            proposer=self.player_id,
            parent_digest=self.expected_parent_digest(round_number),
            transactions=tuple(transactions),
        )

    def _make_preprepare(self, round_number: int, conflict_marker: bool = False) -> PrePrepare:
        block = self._build_block(round_number, conflict_marker=conflict_marker)
        statement = make_statement(self.keypair, self.PREPREPARE, round_number, block.digest)
        return self.PREPREPARE_MESSAGE(block=block, statement=statement)

    def _propose(self, round_number: int) -> None:
        primary = self._make_preprepare(round_number)
        self.round_state(round_number).sent_preprepare = primary
        self.broadcast(
            primary,
            message_type=self.PREPREPARE,
            size_bytes=primary.size_bytes,
            round_number=round_number,
            alternative_factory=lambda: self._make_preprepare(round_number, conflict_marker=True),
            phase=self.PREPREPARE,
        )

    # ------------------------------------------------------------------
    # Accountability hooks (no-ops: pBFT keeps no evidence)
    # ------------------------------------------------------------------
    def _absorb_evidence(self, message: Any) -> None:
        """Feed a validated message's signed statements to fraud
        detection."""

    def _commit_justified(self, message: Any) -> bool:
        """Whether a validly signed commit carries a valid justification;
        pBFT commits carry none."""
        return True

    def _make_commit(self, state: _PbftRound, digest: str) -> Optional[Any]:
        """Our commit for ``digest``, or None if we cannot justify it."""
        statement = make_statement(self.keypair, self.COMMIT, state.number, digest)
        return PhaseVote(statement=statement, block=state.blocks.get(digest))

    def _make_view_change(self, round_number: int, state: Optional[_PbftRound] = None) -> Any:
        """Our view change for ``round_number``.  ``state`` is given when
        the round times out, so evidence can ride along, and omitted on
        a catch-up resend."""
        statement = make_statement(self.keypair, self.VIEW_CHANGE, round_number, "")
        return PbftViewChange(statement=statement)

    def on_halted_payload(self, sender: int, payload: Any) -> None:
        """Past-round traffic, whether halted or not: the availability
        of decided blocks outlives the round, so serve catch-up."""
        self._maybe_serve_catch_up(sender, payload)

    # ------------------------------------------------------------------
    def handle_payload(self, sender: int, payload: Any) -> None:
        round_number = self._live_round(sender, payload)
        if round_number is None:
            return
        if round_number < self.current_round:
            self.on_halted_payload(sender, payload)
            return
        if isinstance(payload, self.PREPREPARE_MESSAGE):
            self._on_preprepare(sender, payload)
        elif isinstance(payload, self.PREPARE_MESSAGE) and payload.statement.phase == self.PREPARE:
            self._on_prepare(sender, payload)
        elif isinstance(payload, self.COMMIT_MESSAGE) and payload.statement.phase == self.COMMIT:
            self._on_commit(sender, payload)
        elif isinstance(payload, self.VIEW_CHANGE_MESSAGE):
            self._on_view_change(sender, payload)

    def _valid(self, statement: SignedStatement, sender: int, phase: str) -> bool:
        return (
            statement.phase == phase
            and statement.signer == sender
            and verify_statement(self.ctx.registry, statement)
        )

    def _on_preprepare(self, sender: int, message: PrePrepare) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        if sender != self.leader_of_round(round_number):
            return
        if not self._valid(message.statement, sender, self.PREPREPARE):
            return
        if message.block.digest != message.statement.digest:
            return
        self._absorb_evidence(message)
        digest = message.digest
        state.blocks.setdefault(digest, message.block)
        may_sign = not state.prepared_digests or self.strategy.double_votes()
        if digest in state.prepared_digests or not may_sign:
            return
        if message.block.parent_digest != self.expected_parent_digest(round_number):
            return
        state.prepared_digests.add(digest)
        self._broadcast_prepare(round_number, digest)

    def _broadcast_prepare(self, round_number: int, digest: str) -> None:
        statement = make_statement(self.keypair, self.PREPARE, round_number, digest)
        vote = self.PREPARE_MESSAGE(statement=statement)
        self.broadcast(
            vote,
            message_type=self.PREPARE,
            size_bytes=vote.size_bytes,
            round_number=round_number,
            phase=self.PREPARE,
        )

    def _on_prepare(self, sender: int, message: PhaseVote) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        if not self._valid(message.statement, sender, self.PREPARE):
            return
        self._absorb_evidence(message)
        digest = message.digest
        state.prepares.setdefault(digest, {})[sender] = message.statement
        if len(state.prepares[digest]) < self.config.quorum_size:
            return
        # Prepare quorum = this slot's proposal is acknowledged: the
        # pipeline may open the next slot on top of it.
        block = state.blocks.get(digest)
        if block is not None:
            self._note_proposal_acked(round_number, block)
        may_sign = not state.committed_digests or self.strategy.double_votes()
        if digest in state.committed_digests or not may_sign:
            return
        state.committed_digests.add(digest)
        # The prepare quorum just formed, so the commit is justified.
        self._broadcast_commit(self._make_commit(state, digest), round_number)

    def _broadcast_commit(self, commit: Any, round_number: int) -> None:
        self.broadcast(
            commit,
            message_type=self.COMMIT,
            size_bytes=commit.size_bytes,
            round_number=round_number,
            phase=self.COMMIT,
        )

    def _on_commit(self, sender: int, message: Any) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        if not self._valid(message.statement, sender, self.COMMIT):
            return
        if not self._commit_justified(message):
            return
        self._absorb_evidence(message)
        digest = message.digest
        if message.block is not None and message.block.digest == digest:
            state.blocks.setdefault(digest, message.block)
        state.commits.setdefault(digest, {})[sender] = message.statement
        if state.finalized:
            return
        if len(state.commits[digest]) >= self.config.quorum_size:
            self._finalize(state, digest)

    def _maybe_serve_catch_up(self, sender: int, payload: Any) -> None:
        """Serve a *verified* past-round ViewChange on a faulty link."""
        if not self.ctx.network.unreliable:
            return
        if not isinstance(payload, self.VIEW_CHANGE_MESSAGE):
            return
        if not self._valid(payload.statement, sender, self.VIEW_CHANGE):
            return
        self._offer_catch_up_range(sender, payload.round_number)

    def _offer_catch_up(self, requester: int, round_number: int) -> None:
        """Retransmit our round outcome to a peer stuck behind lost traffic.

        All we can (soundly) resend is our *own* signature: our commit
        with the block for a finalized round, or our view change for an
        abandoned one.  The laggard assembles its quorum from many
        helpers' resends, one signer each — exactly the messages it
        would have received had the link not dropped them.  Only ever
        active on unreliable networks; strategy-mediated via
        :meth:`BaseReplica.send_direct`.
        """
        if requester == self.player_id:
            return
        state = self._rounds.get(round_number)
        if state is None:
            return
        if state.finalized and state.decided_digest is not None:
            digest = state.decided_digest
            if digest not in state.committed_digests:
                # We finalized on a quorum of *others'* commits without
                # signing this digest ourselves (our own commit went to
                # a competing proposal).  Rebuilding a commit would sign
                # a value we never signed — an honest double-sign.  Let
                # replicas that did commit it serve.
                return
            if state.blocks.get(digest) is None:
                return
            commit = self._make_commit(state, digest)
            if commit is None:
                return
            self.send_direct(
                requester, commit, self.COMMIT, commit.size_bytes, round_number,
                phase=self.COMMIT,
            )
        elif state.advanced:
            view_change = self._make_view_change(round_number)
            self.send_direct(
                requester, view_change, self.VIEW_CHANGE, view_change.size_bytes,
                round_number, phase=self.VIEW_CHANGE,
            )

    def _finalize(self, state: _PbftRound, digest: str) -> None:
        block = state.blocks.get(digest)
        if block is None:
            return
        if block.parent_digest != self.chain.head().digest:
            if state.number > self.current_round and not state.finalized:
                # Out-of-order commit inside the pipeline window: park
                # it until the predecessor slot lands on the chain.
                self._defer_finalize(
                    state.number, lambda: self._finalize(state, digest)
                )
            return
        state.finalized = True
        state.decided_digest = digest
        self.chain.append_tentative(block)
        self.chain.finalize(digest)
        self.mempool.mark_included(tx.tx_id for tx in block.transactions)
        self.ctx.collateral.note_block_mined()
        self.note_block_finalized(block)
        self.trace("final", round=state.number, digest=digest[:12])
        self._advance(state.number)
        self._flush_deferred_finalizes()

    # ------------------------------------------------------------------
    def _on_round_timeout(self, round_number: int) -> None:
        if self.halted:
            return
        if round_number > self.current_round:
            # A speculative slot's timer stays alive, but only the
            # commit frontier retransmits or view-changes; a stalled
            # slot acts once the frontier reaches it.
            if not self.round_state(round_number).finalized:
                self._arm_round_timer(round_number)
            return
        if self.current_round != round_number:
            return
        state = self.round_state(round_number)
        if state.finalized:
            return
        state.timeouts += 1
        if self.ctx.network.unreliable:
            # Faulty link: first re-send everything we already said
            # (identical statements — receivers dedup), and give the
            # round one extra timeout to complete before view-changing.
            self._retransmit_round(state)
            if state.timeouts == 1:
                self._arm_round_timer(round_number)
                return
        # Retransmit on repeat timeouts when the link may have dropped
        # the first copy; on reliable channels one ViewChange suffices.
        if not state.view_change_sent or self.ctx.network.unreliable:
            state.view_change_sent = True
            message = self._make_view_change(round_number, state)
            self.broadcast(
                message,
                message_type=self.VIEW_CHANGE,
                size_bytes=message.size_bytes,
                round_number=round_number,
                phase=self.VIEW_CHANGE,
            )
        self._arm_round_timer(round_number)

    def _retransmit_round(self, state: _PbftRound) -> None:
        """Re-broadcast this round's already-emitted messages.

        Rebuilt statements sign the same tuples as the originals
        (signatures are deterministic), so retransmission can never
        create a double-sign; receivers dedup by (sender, digest).
        """
        round_number = state.number
        if state.sent_preprepare is not None:
            # Resend the *stored* pre-prepare verbatim: rebuilding
            # could pick up a changed chain head or mempool and sign a
            # different block — a self-inflicted double-sign.
            self.broadcast(
                state.sent_preprepare,
                message_type=self.PREPREPARE,
                size_bytes=state.sent_preprepare.size_bytes,
                round_number=round_number,
                phase=self.PREPREPARE,
            )
        for digest in sorted(state.prepared_digests):
            self._broadcast_prepare(round_number, digest)
        for digest in sorted(state.committed_digests):
            commit = self._make_commit(state, digest)
            if commit is not None:
                self._broadcast_commit(commit, round_number)

    def _on_view_change(self, sender: int, message: Any) -> None:
        round_number = message.round_number
        state = self.round_state(round_number)
        if not self._valid(message.statement, sender, self.VIEW_CHANGE):
            return
        self._absorb_evidence(message)
        state.view_changes[sender] = message.statement
        if len(state.view_changes) >= self.config.n - self.config.t0 and not state.finalized:
            self.trace("view_change_committed", round=round_number)
            self._advance(round_number)


def pbft_factory(player: Player, config: ProtocolConfig, ctx: ProtocolContext) -> PBFTReplica:
    """Replica factory for :class:`~repro.protocols.spec.RunSpec` and
    :func:`~repro.protocols.runner.run`."""
    return PBFTReplica(player, config, ctx)
