"""Runtime handles for malleable entities.

The compiler's generated C exposes per-malleable setter functions and
per-table entry functions (``table_var.addEntry(...)``); these classes
are their runtime equivalents.  The table handle owns the *user-level*
view of a transformed table: one logical entry fans out to the
``prod(|alts|)`` specialized concrete entries of Section 4.1, doubled
across the two vv versions by the three-phase protocol of
Section 5.1.2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AgentError
from repro.compiler.spec import TableTransformSpec
from repro.switch.driver import Driver, MemoHandle


def _full_mask(width: int) -> int:
    return (1 << width) - 1


def _wildcard(match_type: str, width: int):
    if match_type == "ternary":
        return (0, 0)
    if match_type == "lpm":
        return (0, 0)
    if match_type == "range":
        return (0, _full_mask(width))
    raise AgentError(f"cannot wildcard a {match_type} match")


def _as_pattern(match_type: str, width: int, user_part):
    """Convert a user key part to a concrete pattern of ``match_type``.

    Exact reads that were widened to ternary accept a plain int.
    """
    if match_type == "exact":
        return int(user_part)
    if match_type == "ternary":
        if isinstance(user_part, tuple):
            return user_part
        return (int(user_part), _full_mask(width))
    if match_type in ("lpm", "range"):
        if not isinstance(user_part, tuple):
            if match_type == "lpm":
                return (int(user_part), width)  # host match
            raise AgentError("range key part must be a (lo, hi) tuple")
        return user_part
    if match_type == "valid":
        return bool(user_part)
    raise AgentError(f"unknown match type {match_type!r}")


@dataclass
class _UserEntry:
    """One logical entry and its concrete handles, per vv version."""

    user_id: int
    key: Tuple
    action: str
    args: List[int]
    priority: int
    # version (0/1) -> list of concrete entry ids
    concrete: Dict[int, List[int]] = field(default_factory=dict)


class MalleableTableHandle:
    """User-facing handle for a malleable (or transformed) table.

    All mutating methods follow the three-phase protocol: they
    immediately *prepare* the change against the inactive (shadow)
    version; the agent's vv flip *commits*; :meth:`fill_shadow` then
    *mirrors* the change into the now-inactive copy.

    ``selector()`` callbacks let the handle ask the agent for the
    current alt index of each malleable field -- needed because the
    paper installs entries for *every* combination, so the handle
    enumerates combinations rather than asking.
    """

    def __init__(
        self,
        driver: Driver,
        transform: TableTransformSpec,
        active_version,  # callable () -> int, the agent's committed vv
        memo: Optional[MemoHandle] = None,
        field_alt_counts: Optional[Dict[str, int]] = None,
    ):
        self.driver = driver
        self.transform = transform
        self.name = transform.name
        self._active_version = active_version
        self.memo = memo
        self._alt_counts = dict(field_alt_counts or {})
        self._users: Dict[int, _UserEntry] = {}
        self._next_user_id = itertools.count(1)
        #: Prepared-but-uncommitted ops: [op, user_id, payload] lists
        #: (mutable: the mirror rewrites op in place to track
        #: roll-forward progress) replayed against the old copy after
        #: each commit.  The agent's commit reads this to skip handles
        #: with nothing to seal.
        self.pending_mirror: List[List] = []
        # Sealed generations awaiting mirror: (old_version, ops).  A
        # generation is sealed at its vv flip and drained op by op;
        # a driver failure mid-drain leaves the remainder here so the
        # agent can roll the mirror forward before the next commit.
        self._sealed_mirror: List[Tuple[int, List[List]]] = []

    # ---- public API (callable from C reaction bodies) ---------------------

    def addEntry(self, *flat_args, **kwargs):
        """C-style flat call: key parts, then action name, then args.

        From Python, prefer :meth:`add` with explicit arguments.
        """
        key, action, args, priority = self._split_flat(flat_args, kwargs)
        return self.add(key, action, args, priority)

    def modEntry(self, user_id: int, *action_args, **kwargs):
        action = kwargs.pop("action", None)
        return self.modify(user_id, action=action, args=list(action_args) or None)

    def delEntry(self, user_id: int):
        return self.delete(user_id)

    def setDefault(self, action: str, *args):
        """Default-action updates are single atomic ops; applied directly."""
        self.driver.set_default(self.name, action, list(args), memo=self.memo)

    # ---- python API -------------------------------------------------------

    def add(
        self,
        key: Sequence,
        action: str,
        args: Sequence[int] = (),
        priority: int = 0,
    ) -> int:
        """Prepare a logical entry; visible after the next vv commit."""
        expected = len(self.transform.reads)
        if len(key) != expected:
            raise AgentError(
                f"table {self.name}: expected {expected} user key parts, "
                f"got {len(key)}"
            )
        user = _UserEntry(
            next(self._next_user_id), tuple(key), action, list(args), priority
        )
        self.drain_mirror()
        shadow = self._shadow_version()
        try:
            self._install(user, shadow)
        except Exception:
            # Best-effort rollback: a failed prepare must not leave
            # orphaned concrete entries on the shadow copy (they would
            # activate at the next flip with no owner).
            try:
                self._delete_concrete(user, shadow)
            except Exception:
                pass
            raise
        self._users[user.user_id] = user
        self.pending_mirror.append(["add", user.user_id, ()])
        return user.user_id

    def modify(
        self,
        user_id: int,
        action: Optional[str] = None,
        args: Optional[Sequence[int]] = None,
    ) -> None:
        user = self._get(user_id)
        self.drain_mirror()
        if action is not None and action != user.action:
            # Changing the action can change specialization; reinstall.
            shadow = self._shadow_version()
            self._delete_concrete(user, shadow)
            user.action = action
            if args is not None:
                user.args = list(args)
            self._install(user, shadow)
            self.pending_mirror.append(["reinstall", user_id, ()])
            return
        if args is not None:
            user.args = list(args)
        shadow = self._shadow_version()
        resolved_args = list(user.args)
        for concrete_id in user.concrete.get(shadow, []):
            self.driver.modify_entry(
                self.name, concrete_id, args=resolved_args, memo=self.memo
            )
        self.pending_mirror.append(["modify", user_id, ()])

    def delete(self, user_id: int) -> None:
        user = self._get(user_id)
        self.drain_mirror()
        shadow = self._shadow_version()
        self._delete_concrete(user, shadow)
        self.pending_mirror.append(["delete", user_id, ()])

    def seal_mirror(self, old_version: int) -> None:
        """Bind the prepared-and-committed ops to the version copy
        they must be mirrored onto.  Called at the vv flip; ops staged
        after the seal belong to the next generation."""
        if self.pending_mirror:
            self._sealed_mirror.append((old_version, self.pending_mirror))
            self.pending_mirror = []

    def drain_mirror(self) -> None:
        """Replay sealed mirror generations, op by op.

        Each op is removed only after it fully lands, and every op is
        internally resumable (installs append concrete ids as they
        land; deletes pop ids as they land), so a driver failure
        mid-drain can be rolled forward by calling this again.
        """
        while self._sealed_mirror:
            old_version, ops = self._sealed_mirror[0]
            while ops:
                self._apply_mirror_op(old_version, ops[0])
                ops.pop(0)
            self._sealed_mirror.pop(0)

    def fill_shadow(self, old_version: int) -> None:
        """Mirror phase: replay committed changes onto the now-shadow
        ``old_version`` copies.  Called by the agent after the vv flip."""
        self.seal_mirror(old_version)
        self.drain_mirror()

    def _apply_mirror_op(self, old_version: int, op_entry: List) -> None:
        op, user_id = op_entry[0], op_entry[1]
        user = self._users.get(user_id)
        if user is None:
            return
        if op == "reinstall":
            self._delete_concrete(user, old_version)
            # Phase marker: deletes done, the remainder is a plain add.
            op_entry[0] = op = "add"
        if op == "add":
            self._install(user, old_version)
        elif op == "modify":
            for concrete_id in user.concrete.get(old_version, []):
                self.driver.modify_entry(
                    self.name, concrete_id, args=list(user.args),
                    memo=self.memo,
                )
        elif op == "delete":
            self._delete_concrete(user, old_version)
            if not user.concrete:
                self._users.pop(user_id, None)

    def _delete_concrete(self, user: _UserEntry, version: int) -> None:
        """Remove one version's concrete entries, forgetting each id
        only once its delete landed (resumable under faults)."""
        concrete_ids = user.concrete.get(version, [])
        while concrete_ids:
            self.driver.delete_entry(self.name, concrete_ids[-1], memo=self.memo)
            concrete_ids.pop()
        user.concrete.pop(version, None)

    @property
    def pending_ops(self) -> int:
        return len(self.pending_mirror) + self.mirror_backlog

    @property
    def mirror_backlog(self) -> int:
        """Committed-but-unmirrored ops from failed commits."""
        return sum(len(ops) for _version, ops in self._sealed_mirror)

    def user_entry_count(self) -> int:
        return len(self._users)

    # ---- concrete-entry expansion -----------------------------------------

    def _shadow_version(self) -> int:
        return self._active_version() ^ 1

    def _get(self, user_id: int) -> _UserEntry:
        if user_id not in self._users:
            raise AgentError(f"table {self.name}: no user entry #{user_id}")
        return self._users[user_id]

    def _involved_fields(self, action: str) -> List[str]:
        """Malleable fields whose alts this entry must enumerate."""
        fields = [
            r.field_name for r in self.transform.reads if r.kind == "mbl"
        ]
        specialization = self.transform.actions.get(action)
        if specialization:
            for name in specialization.fields:
                if name not in fields:
                    fields.append(name)
        return fields

    def _alt_count(self, field_name: str) -> int:
        for read in self.transform.reads:
            if read.kind == "mbl" and read.field_name == field_name:
                return read.alt_count
        if field_name in self._alt_counts:
            return self._alt_counts[field_name]
        raise AgentError(
            f"table {self.name}: unknown alt count for field {field_name!r}"
        )

    def _install(self, user: _UserEntry, version: int) -> List[int]:
        """Install all concrete entries for one user entry at ``version``.

        Resumable: ids are tracked in ``user.concrete[version]`` as
        each add lands, and the (deterministic) combo enumeration
        skips entries already installed -- a retry after a mid-install
        driver failure finishes the remainder without duplicating.
        """
        fields = self._involved_fields(user.action)
        combos = list(
            itertools.product(
                *[range(self._alt_count(name)) for name in fields]
            )
        ) if fields else [()]
        concrete_ids = user.concrete.setdefault(version, [])
        for combo in combos[len(concrete_ids):]:
            assignment = dict(zip(fields, combo))
            key, action = self._concrete_key(user, assignment, version)
            concrete_ids.append(
                self.driver.add_entry(
                    self.name, key, action, user.args,
                    priority=user.priority, memo=self.memo,
                )
            )
        return concrete_ids

    # ---- crash recovery ----------------------------------------------------

    def adopt_entries(self, entries, active_version: int) -> None:
        """Rebuild user-level bookkeeping from installed concrete
        entries (agent crash recovery; ``entries`` as returned by
        :meth:`Driver.read_entries`).

        Only supported for tables without malleable-field reads or
        action specialization: those expansions are not invertible
        once the user-level key is lost.  Version singletons are
        repaired: an entry present only in the shadow copy is a
        prepared-but-never-committed leftover and is deleted; one
        present only in the active copy is an unmirrored commit and is
        rolled forward into the shadow copy.
        """
        if any(r.kind == "mbl" for r in self.transform.reads) or (
            self.transform.action_selectors
        ):
            raise AgentError(
                f"table {self.name}: cannot recover user entries of a "
                "malleable-field transformed table"
            )
        if self._users:
            raise AgentError(
                f"table {self.name}: adopt_entries on a non-empty handle"
            )
        vv_position = self.transform.vv_position
        groups: Dict[Tuple, Dict[int, int]] = {}
        for entry_id, key, action, args, priority in entries:
            if vv_position >= 0:
                version = key[vv_position]
                user_key = tuple(
                    part for index, part in enumerate(key)
                    if index != vv_position
                )
            else:
                version = active_version
                user_key = tuple(key)
            groups.setdefault(
                (user_key, action, tuple(args), priority), {}
            )[version] = entry_id
        ordered = sorted(groups.items(), key=lambda item: min(item[1].values()))
        for (user_key, action, args, priority), versions in ordered:
            user = _UserEntry(
                next(self._next_user_id), user_key, action, list(args),
                priority,
            )
            for version, entry_id in versions.items():
                user.concrete[version] = [entry_id]
            if vv_position >= 0:
                if active_version not in versions:
                    # Prepared but never committed (crash mid-prepare):
                    # discard, or the change would leak at the next flip.
                    self._delete_concrete(user, active_version ^ 1)
                    continue
                if (active_version ^ 1) not in versions:
                    # Committed but never mirrored: roll forward.
                    self._install(user, active_version ^ 1)
            self._users[user.user_id] = user

    def _concrete_key(
        self, user: _UserEntry, assignment: Dict[str, int], version: int
    ) -> Tuple[List, str]:
        total = self.transform.total_key_parts
        key: List = [None] * total
        for read, user_part in zip(self.transform.reads, user.key):
            if read.kind == "plain":
                key[read.positions[0]] = _as_pattern(
                    read.match_type, read.width, user_part
                )
            else:
                chosen = assignment[read.field_name]
                for alt_index, position in enumerate(read.positions):
                    if alt_index == chosen:
                        key[position] = _as_pattern(
                            read.match_type, read.width, user_part
                        )
                    else:
                        key[position] = _wildcard(read.match_type, read.width)
                key[read.selector_position] = chosen
        for field_name, position in self.transform.action_selectors.items():
            key[position] = assignment[field_name]
        if self.transform.vv_position >= 0:
            key[self.transform.vv_position] = version
        if any(part is None for part in key):
            raise AgentError(
                f"table {self.name}: incomplete concrete key {key}"
            )
        action = user.action
        specialization = self.transform.actions.get(user.action)
        if specialization:
            combo = tuple(assignment[f] for f in specialization.fields)
            action = specialization.variant(combo)
        return key, action

    def _split_flat(self, flat_args, kwargs):
        """Split a C-style flat argument list into (key, action, args)."""
        key_len = len(self.transform.reads)
        if len(flat_args) < key_len + 1:
            raise AgentError(
                f"table {self.name}.addEntry: need {key_len} key parts "
                "plus an action name"
            )
        key = flat_args[:key_len]
        action = flat_args[key_len]
        if not isinstance(action, str):
            raise AgentError(
                f"table {self.name}.addEntry: argument {key_len} must be "
                "the action name"
            )
        args = list(flat_args[key_len + 1 :])
        priority = kwargs.pop("priority", 0)
        return key, action, args, priority
