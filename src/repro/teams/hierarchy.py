"""Memory-hierarchy metadata for a team (the paper's §IV-A methodology).

At team-formation time the runtime inspects the placement of the team's
members and precomputes:

* the **intranode sets** — which team members share each physical node;
* a **leader** per node (deterministically elected);
* the ordered **leader list**, which is the participant set of the
  inter-node (dissemination) phase of every two-level collective.

Collectives then do zero topology work per call — they read this object.
The paper stores the same information in its ``team_type`` runtime
structure; we attach a :class:`HierarchyInfo` to every
:class:`~repro.teams.team.TeamShared`.

Leader election strategies (experiment E7 ablates them):

``lowest``
    The smallest team index on each node (the paper's choice: a
    "designated leader", stable and cheap).
``highest``
    The largest index — identical cost in a symmetric model, used to
    show the choice is immaterial for correctness.
``rotating``
    Index ``k mod |set|`` within each intranode set, where ``k`` is the
    formation sequence number — spreads leader load across images when
    teams are re-formed repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..machine import Topology

__all__ = ["HierarchyInfo", "LEADER_STRATEGIES"]

LEADER_STRATEGIES = ("lowest", "highest", "rotating")


@dataclass(frozen=True)
class HierarchyInfo:
    """Precomputed two-level (plus optional socket-level) structure.

    All member references are **1-based team indices** (the public CAF
    numbering), not global proc ids.
    """

    #: node id → sorted team indices of members on that node
    node_sets: Dict[int, List[int]]
    #: team index → team index of its node's leader
    leader_of: Dict[int, int]
    #: leaders ordered by team index — the inter-node participant list
    leaders: List[int]
    #: leader team index → 0-based rank within :attr:`leaders`
    leader_rank: Dict[int, int]
    #: team index → node id
    node_of: Dict[int, int]
    #: team index → socket id within its node (for the NUMA ablation)
    socket_of: Dict[int, int]

    # ------------------------------------------------------------------
    @property
    def num_nodes_used(self) -> int:
        return len(self.node_sets)

    @property
    def max_images_per_node(self) -> int:
        return max(len(s) for s in self.node_sets.values())

    @property
    def is_flat(self) -> bool:
        """True when every member is alone on its node — the paper's
        flat-hierarchy configuration, where two-level degenerates to the
        leader phase only."""
        return self.max_images_per_node == 1

    def is_leader(self, index: int) -> bool:
        return self.leader_of[index] == index

    def slaves_of(self, leader: int) -> List[int]:
        """Non-leader members sharing the leader's node, sorted."""
        return [i for i in self.node_sets[self.node_of[leader]] if i != leader]

    def intranode_peers(self, index: int) -> List[int]:
        """All members (incl. ``index``) on ``index``'s node."""
        return self.node_sets[self.node_of[index]]

    def socket_sets(self, node: int) -> Dict[int, List[int]]:
        """Socket id → member indices, within one node (3-level ablation)."""
        groups: Dict[int, List[int]] = {}
        for idx in self.node_sets[node]:
            groups.setdefault(self.socket_of[idx], []).append(idx)
        for members in groups.values():
            members.sort()
        return groups

    # ------------------------------------------------------------------
    @staticmethod
    def build(
        topology: Topology,
        members: Sequence[int],
        strategy: str = "lowest",
        formation_seq: int = 0,
    ) -> "HierarchyInfo":
        """Compute hierarchy metadata for a team.

        ``members`` lists global proc ids ordered by team index (position
        p holds the proc of team index p+1).
        """
        if not members:
            # Guard here rather than letting max()/indexing blow up later:
            # max_images_per_node / is_flat on an empty hierarchy raised a
            # bare "max() arg is an empty sequence".
            raise ValueError(
                "HierarchyInfo.build: a team needs at least one member "
                "(got an empty member list)"
            )
        if strategy not in LEADER_STRATEGIES:
            raise ValueError(
                f"unknown leader strategy {strategy!r}; have {LEADER_STRATEGIES}"
            )
        node_of: Dict[int, int] = {}
        socket_of: Dict[int, int] = {}
        node_sets: Dict[int, List[int]] = {}
        for pos, proc in enumerate(members):
            index = pos + 1
            node = topology.node_of(proc)
            node_of[index] = node
            socket_of[index] = topology.socket_of(proc)
            node_sets.setdefault(node, []).append(index)
        for indices in node_sets.values():
            indices.sort()

        leader_of: Dict[int, int] = {}
        for node, indices in node_sets.items():
            if strategy == "lowest":
                leader = indices[0]
            elif strategy == "highest":
                leader = indices[-1]
            else:  # rotating
                leader = indices[formation_seq % len(indices)]
            for idx in indices:
                leader_of[idx] = leader

        leaders = sorted({leader_of[i] for i in leader_of})
        leader_rank = {leader: r for r, leader in enumerate(leaders)}
        return HierarchyInfo(
            node_sets=node_sets,
            leader_of=leader_of,
            leaders=leaders,
            leader_rank=leader_rank,
            node_of=node_of,
            socket_of=socket_of,
        )
