"""Team runtime structures: the paper's ``team_type`` (§III).

The paper's runtime stores, per team, "image-specific information, such
as the mapping from a new index to the process identifier in the lower
communication layer", plus the synchronization state collectives need
(its Algorithm 1 reads ``team.cocounter``).  We split that into:

* :class:`TeamShared` — one object per formed team, shared by all its
  members: the index→proc mapping, the precomputed
  :class:`~repro.teams.hierarchy.HierarchyInfo`, and the synchronization
  cells (dissemination ``sync_flags``, which other barriers reuse as
  named counter tables; TDLB's cocounters and release flags; tagged
  mailboxes for data-carrying collectives).
* :class:`TeamView` — one per member image: its 1-based index, its
  barrier/collective sequence counters, a link to the view of the
  parent team it was formed from, and its member plan (the resolved
  collective steps, see :mod:`repro.collectives.base`).

All cross-image *data* lives in shared Python structures at zero model
cost; every *notification or payload movement* that touches them is
charged through the conduit before the shared structure is updated.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..machine import Topology
from ..sim import Cell, Engine
from .hierarchy import HierarchyInfo

__all__ = ["TeamShared", "TeamView", "INITIAL_TEAM_NUMBER"]

#: the Fortran initial team has no user team_number; we use -1 like OpenUH
INITIAL_TEAM_NUMBER = -1

_uid_counter = itertools.count(1)


class TeamShared:
    """Shared state of one formed team."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        members: Sequence[int],
        team_number: int,
        parent: Optional["TeamShared"],
        leader_strategy: str = "lowest",
        formation_seq: int = 0,
    ):
        if not members:
            raise ValueError("a team needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError("duplicate member procs in team")
        self.uid = next(_uid_counter)
        self.engine = engine
        self.team_number = team_number
        self.parent = parent
        #: teams formed from this one (filled as children are created) —
        #: lets diagnostics walk the whole team tree from the initial team
        self.children: List["TeamShared"] = []
        if parent is not None:
            parent.children.append(self)
        #: global proc ids ordered by team index (position p ↔ index p+1)
        self.members: List[int] = list(members)
        self.proc_to_index: Dict[int, int] = {
            proc: pos + 1 for pos, proc in enumerate(self.members)
        }
        self.hierarchy = HierarchyInfo.build(
            topology, self.members, strategy=leader_strategy,
            formation_seq=formation_seq,
        )
        #: member count (membership is fixed at formation)
        self.size = n = len(self.members)
        #: every team index in order — the participant list of flat
        #: (whole-team) algorithms, one persistent object per team
        self.indices = range(1, n + 1)
        # --- synchronization cells, indexed by 1-based team index -------
        #: variant → {(index, round): cell}
        self._diss_flags: Dict[str, Dict[Tuple[int, int], Cell]] = {}
        #: variant → dissemination windows credited without materializing
        #: their flags (see :meth:`credit_diss`)
        self._diss_credit: Dict[str, int] = {}
        self._cocounter: Dict[int, Cell] = {}
        self._release: Dict[int, Cell] = {}
        # --- tagged mailboxes for data-carrying collectives --------------
        #: (index, tag) → its mailbox, which carries the deposited values
        self._mail_cells: Dict[tuple, _MailCell] = {}
        # --- form_team rendezvous state ----------------------------------
        self.formation_counter = 0
        self._formations: Dict[int, dict] = {}

    # ------------------------------------------------------------------
    def proc_of(self, index: int) -> int:
        """Global proc id of team index ``index`` (1-based) — the paper's
        image-index mapping array lookup."""
        if not 1 <= index <= self.size:
            raise ValueError(f"image index {index} out of range [1, {self.size}]")
        return self.members[index - 1]

    def index_of(self, proc: int) -> int:
        """Team index of global proc ``proc``; raises if not a member."""
        try:
            return self.proc_to_index[proc]
        except KeyError:
            raise ValueError(f"proc {proc} is not a member of team {self!r}") from None

    def ancestors(self) -> List["TeamShared"]:
        """Chain parent, grandparent, ... up to the initial team."""
        out = []
        cur = self.parent
        while cur is not None:
            out.append(cur)
            cur = cur.parent
        return out

    # ------------------------------------------------------------------
    # Dissemination sync_flags (one monotonically increasing counter per
    # member per round — the "carry" that makes the one-wait barrier work)
    # ------------------------------------------------------------------
    def diss_flag(self, index: int, round_: int, variant: str) -> Cell:
        """Member ``index``'s round-``round_`` flag of ``variant``.  Other
        barriers keep their counters here too, under variants of their
        own (``linear-arrive``/``linear-release``, ``tdlb3-*``), so the
        deadlock analyzer can tell from a cell whose protocol wrote it."""
        flags = self._diss_flags.get(variant)
        if flags is None:
            flags = self._diss_flags[variant] = {}
        cell = flags.get((index, round_))
        if cell is None:
            cell = Cell(
                self.engine, self._diss_credit.get(variant, 0),
                name=f"t{self.uid}.{variant}[{index}][{round_}]",
                meta={"kind": "diss", "team": self, "index": index,
                      "round": round_, "variant": variant},
            )
            flags[(index, round_)] = cell
        return cell

    def credit_diss(self, variant: str) -> None:
        """Account one complete dissemination window of ``variant``
        without touching every flag it notifies.

        A window among a fixed participant list notifies every
        (participant, round) flag of its variant exactly once, so the
        effect is "+1 on every flag": existing cells get their ``add(1)``
        now, and cells first materialized later start at the credit.  A
        later fine-grained window's carry predicate ``flag >= seq`` then
        sees exactly the values it would had every flag been written.
        """
        self._diss_credit[variant] = self._diss_credit.get(variant, 0) + 1
        for cell in self._diss_flags.get(variant, {}).values():
            cell.add(1)

    def cocounter(self, index: int) -> Cell:
        """Arrival counter at a node leader (Algorithm 1's ``cocounter``)."""
        cell = self._cocounter.get(index)
        if cell is None:
            cell = Cell(
                self.engine, 0, name=f"t{self.uid}.cocounter[{index}]",
                meta={"kind": "cocounter", "team": self, "index": index},
            )
            self._cocounter[index] = cell
        return cell

    def release_flag(self, index: int) -> Cell:
        """Per-slave release counter of TDLB's third step."""
        cell = self._release.get(index)
        if cell is None:
            cell = Cell(
                self.engine, 0, name=f"t{self.uid}.release[{index}]",
                meta={"kind": "release", "team": self, "index": index},
            )
            self._release[index] = cell
        return cell

    # ------------------------------------------------------------------
    # Tagged mailboxes (data plane of reductions, broadcasts, formation)
    # ------------------------------------------------------------------
    def mail_cell(self, index: int, tag: Hashable) -> Cell:
        """Arrival counter of mailbox ``tag`` at member ``index``."""
        key = (index, tag)
        cell = self._mail_cells.get(key)
        if cell is None:
            cell = self._mail_cells[key] = _MailCell(self, index, tag)
        return cell

    def deposit(self, index: int, tag: Hashable, value: Any) -> None:
        """Land ``value`` in member ``index``'s mailbox ``tag`` and bump its
        counter — called from transfer delivery callbacks only.  The
        values ride on the mailbox cell, so this is one dict lookup."""
        cell = self.mail_cell(index, tag)
        cell.values.append(value)
        cell.add(1)

    def collect(self, index: int, tag: Hashable) -> List[Any]:
        """Drain mailbox ``tag`` at member ``index``: forget its cell and
        return the values deposited there, in arrival order (``[]`` if
        there is no such mailbox)."""
        cell = self._mail_cells.pop((index, tag), None)
        return [] if cell is None else cell.values

    def close_data_plane(self) -> None:
        """Drop every mailbox of a team that lost a member, and every
        deposit still to land in one.  After a failure no wait on the
        team succeeds — each survivor's next wait or entry check raises
        — and every value is collected right after its wait, so nothing
        would ever read them."""
        self._mail_cells = _Discard()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TeamShared(uid={self.uid}, number={self.team_number}, "
            f"size={self.size})"
        )


class _Discard(dict):
    """A closed data-plane table (see
    :meth:`TeamShared.close_data_plane`): it stores nothing, so a late
    deposit lands in a cell nobody keeps."""

    __slots__ = ()

    def __setitem__(self, key, value) -> None:
        pass


class _MailCell(Cell):
    """A mailbox: an arrival counter that carries the deposited values.

    Tags are per-call tuples and a mailbox lives for one collective
    step, so creating one costs as little as possible: ``values`` is the
    one list the payloads land in, and the name
    ``t{uid}.mail[{index}]{tag}`` and the ``meta`` dict are built only
    when something reads them (a deadlock or race report).
    """

    __slots__ = ("values", "_team", "_index", "_tag")

    def __init__(self, team: TeamShared, index: int, tag: Hashable):
        # Not Cell.__init__: it would store a name and a meta dict, and
        # both are derived here
        self._engine = team.engine
        self._value = 0
        self._watchers = {}
        self._seq = 0
        #: the deposited payloads, in arrival order
        self.values: List[Any] = []
        self._team = team
        self._index = index
        self._tag = tag

    @property
    def name(self) -> str:
        return f"t{self._team.uid}.mail[{self._index}]{self._tag}"

    @property
    def meta(self) -> dict:
        return {"kind": "mail", "team": self._team, "index": self._index,
                "tag": self._tag}


class TeamView:
    """One image's handle on a team — what a ``team_type`` variable holds."""

    def __init__(self, shared: TeamShared, proc: int, parent_view: Optional["TeamView"]):
        self.shared = shared
        self.proc = proc
        self.index = shared.index_of(proc)  # 1-based, this_image() in the team
        self.size = shared.size
        self.parent_view = parent_view
        #: per-variant invocation counters driving the sync_flags carry;
        #: identical across members because SPMD images call team
        #: collectives in the same order
        self._seqs: Dict[str, int] = {}
        #: per-collective-call counter for mailbox tags (same SPMD argument)
        self.op_seq = 0
        #: this member's :class:`~repro.collectives.base.MemberPlan`,
        #: created by the first collective that runs fine-grained on the
        #: team (a replayed macro window builds none)
        self.plan = None

    @property
    def team_number(self) -> int:
        return self.shared.team_number

    def next_seq(self, variant: str) -> int:
        """Invocation number of the next ``variant`` barrier on this team
        (1 on first call).  The carry predicate waits for flag >= seq."""
        seq = self._seqs.get(variant, 0) + 1
        self._seqs[variant] = seq
        return seq

    def next_op_tag(self, kind: str) -> tuple:
        """A tag unique to this collective call, agreed on by all members
        because SPMD images issue team collectives in the same order."""
        self.op_seq += 1
        return (kind, self.op_seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TeamView(team={self.shared.uid}, index={self.index}/{self.size})"
