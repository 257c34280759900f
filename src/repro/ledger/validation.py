"""Ledger-level safety predicates from the paper's definitions.

- :func:`chains_agree` — (t,k)-agreement at the block level: no two
  honest chains hold different final blocks at the same height.
- :func:`common_prefix_holds` — the Garay-Kiayias-Leonardos common
  prefix property from Section 3.1: dropping the z newest blocks from
  each chain leaves a chain that prefixes all others.
- :func:`strict_ordering_holds` — Definition 1's c-strict ordering:
  for honest chains C1, C2 with |C1| ≤ |C2|, C1^{⌊c} ⊆ C2^{⌊c}.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.ledger.block import Block
from repro.ledger.chain import Chain


#: Prefix equivocating strategies stamp on their synthetic fork-marker
#: transactions.  The one place the literal lives: validity is judged
#: once, by the robustness checker through the predicate below, and
#: the trace oracle reads that verdict.
ADVERSARIAL_MARKER_PREFIX = "__fork-"


def is_adversarial_marker(tx_id: str) -> bool:
    """True for synthetic transactions minted by equivocating proposers
    (legitimate *proposed* content, exempt from provenance checks)."""
    return tx_id.startswith(ADVERSARIAL_MARKER_PREFIX)


def _is_prefix(shorter: Sequence[Block], longer: Sequence[Block]) -> bool:
    if len(shorter) > len(longer):
        return False
    return all(a.digest == b.digest for a, b in zip(shorter, longer))


def chains_agree(chains: Dict[int, Chain], final_only: bool = True) -> bool:
    """True if no two chains conflict at any common height.

    With ``final_only`` (the default, matching Definition 1 applied to
    confirmed blocks) only finalised blocks are compared; tentative
    blocks are allowed to differ because the protocol may roll them
    back.
    """
    return not disagreement_heights(chains, final_only)


def common_prefix_holds(chains: Dict[int, Chain], z: int) -> bool:
    """Common-prefix with parameter z over full (tentative+final) chains.

    Each player's chain minus its z newest blocks must be a prefix of
    every other player's full chain.
    """
    if z < 0:
        raise ValueError("z must be non-negative")
    full_views = {pid: chain.blocks(include_genesis=True) for pid, chain in chains.items()}
    for pid, view in full_views.items():
        trimmed = view[:-z] if z else view
        for other_pid, other_view in full_views.items():
            if other_pid == pid:
                continue
            if not _is_prefix(trimmed, other_view):
                return False
    return True


def strict_ordering_holds(chains: Dict[int, Chain], c: int) -> bool:
    """Definition 1's c-strict ordering over final ledgers.

    For every pair of chains with |C1| ≤ |C2|, the ledger C1 minus its
    c newest blocks must be a prefix of C2 minus its c newest blocks.
    """
    if c < 0:
        raise ValueError("c must be non-negative")
    views = [chain.final_blocks(include_genesis=True) for chain in chains.values()]
    for i, left in enumerate(views):
        for right in views[i + 1:]:
            shorter, longer = (left, right) if len(left) <= len(right) else (right, left)
            shorter_trim = shorter[:-c] if c else shorter
            longer_trim = longer[:-c] if c else longer
            if not _is_prefix(shorter_trim, longer_trim):
                return False
    return True


def disagreement_heights(chains: Dict[int, Chain], final_only: bool = True) -> List[int]:
    """Heights at which some pair of chains holds conflicting blocks.

    The one pairwise walk behind (t,k)-agreement: :func:`chains_agree`
    and the robustness checker read agreement off an empty result.
    """
    views = {}
    for pid, chain in chains.items():
        views[pid] = chain.final_blocks() if final_only else chain.blocks()
    conflicts = set()
    pids = sorted(views)
    for i, left_pid in enumerate(pids):
        for right_pid in pids[i + 1:]:
            left, right = views[left_pid], views[right_pid]
            for height in range(min(len(left), len(right))):
                if left[height].digest != right[height].digest:
                    conflicts.add(height + 1)
    return sorted(conflicts)
