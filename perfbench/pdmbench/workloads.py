"""The three closed-loop workloads of the PDM action benchmark.

Each workload builds its inputs from the run seed, sets up a warmed
stack, runs one *action* at a time (the next only after the previous
reply arrived) and checks every action's output outside the timed
interval.  See ``perfbench/README.md`` for why these three were chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.model.parameters import TreeParameters
from repro.pdm.generator import GeneratedProduct
from repro.pdm.operations import CheckOutMode, ExpandStrategy
from repro.recovery import Durability

from pdmbench.stack import (
    BenchmarkError,
    Stack,
    build_product,
    canonical,
    choose_product_seed,
    durable_session_stack,
    expected_visible_subtree,
    in_band,
    levels,
    scenario_stack,
    subtree,
    tree_edges,
    visible_edges,
)


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the defaults are the benchmark's, tests shrink them."""

    nav_tree: TreeParameters = TreeParameters(depth=6, branching=4, visibility=0.5)
    recursive_tree: TreeParameters = TreeParameters(
        depth=6, branching=4, visibility=0.7
    )
    #: ``eco_session`` rounds run a schedule of this many distinct slots,
    #: repeated; the deterministic metrics average the first such window.
    eco_period: int = 8
    #: ``UPDATE assy SET name`` statements per ECO transaction.
    eco_updates: int = 4


#: Depth of the assemblies the ECO writer checks out and the auditor
#: expands.
ECO_LEVEL = 2
#: The auditor expands only level-:data:`ECO_LEVEL` assemblies whose
#: visible subtree is within this share of the expected size, so rounds
#: cost about the same whatever the seed.
AUDIT_TOLERANCE = 0.05


class Workload:
    """A seeded closed-loop workload; subclasses define one action."""

    name = ""
    why = ""
    #: ``accept(product)``: whether a candidate product that matches the
    #: reference size also suits this workload; None accepts every one.
    accept_product: Optional[Callable[[GeneratedProduct], bool]] = None

    def __init__(self, seed: int, sizes: Sizes = Sizes()) -> None:
        self.seed = seed
        self.sizes = sizes
        self.product_seed = choose_product_seed(
            self.tree, seed, accept=self.accept_product
        )

    @property
    def tree(self) -> TreeParameters:
        raise NotImplementedError

    def setup(self) -> Stack:
        """From nothing to a warmed stack (timed as ``setup_s``)."""
        raise NotImplementedError

    def prepare(self, stack: Stack) -> None:
        """Untimed work after set-up: references for the output checks."""

    def action(self, stack: Stack, index: int) -> Any:
        """One timed action; returns what :meth:`check` inspects."""
        raise NotImplementedError

    def check(self, stack: Stack, index: int, outcome: Any) -> List[str]:
        """Problems with one action's output (empty when correct)."""
        raise NotImplementedError

    def finish(self, stack: Stack) -> List[str]:
        """Problems found by the end-of-run checks."""
        return []


class _ExpandWorkload(Workload):
    """Repeated multi-level expand of the product root by one client."""

    strategy = ExpandStrategy.NAVIGATIONAL_LATE
    #: The strategy the reference tree is built with at set-up.
    reference_strategy = ExpandStrategy.EXPAND_BATCHED

    def setup(self) -> Stack:
        stack = scenario_stack(build_product(self.tree, self.product_seed))
        stack.state["root_attrs"] = stack.product.root_attributes()
        self.action(stack, -1)
        return stack

    def prepare(self, stack: Stack) -> None:
        product = stack.product
        reference = stack.clients[0].multi_level_expand(
            product.root_obid,
            self.reference_strategy,
            root_attrs=stack.state["root_attrs"],
        )
        stack.state["reference"] = canonical(reference.tree)

    def action(self, stack: Stack, index: int) -> Any:
        return stack.clients[0].multi_level_expand(
            stack.product.root_obid,
            self.strategy,
            root_attrs=stack.state["root_attrs"],
        )

    def check(self, stack: Stack, index: int, outcome: Any) -> List[str]:
        tree = outcome.tree
        if tree is None:
            return [f"action {index}: expand returned no tree"]
        problems = []
        expected = len(stack.product.visible_obids)
        if tree.node_count() != expected:
            problems.append(
                f"action {index}: {tree.node_count()} nodes, the generator's "
                f"visible set has {expected}"
            )
        if canonical(tree) != stack.state["reference"]:
            problems.append(
                f"action {index}: tree differs from the "
                f"{self.reference_strategy.value} reference"
            )
        return problems


class NavLate(_ExpandWorkload):
    name = "nav_late"
    why = (
        "Table 2 baseline: one round trip per visible node with client-side "
        "rules, so per-request cost dominates"
    )
    strategy = ExpandStrategy.NAVIGATIONAL_LATE

    @property
    def tree(self) -> TreeParameters:
        return self.sizes.nav_tree


class Recursive(_ExpandWorkload):
    name = "recursive"
    why = (
        "Table 4 headline: one recursive query and one large frame, so "
        "fixpoint, per-byte wire cost and tree reassembly dominate"
    )
    strategy = ExpandStrategy.RECURSIVE_EARLY

    @property
    def tree(self) -> TreeParameters:
        return self.sizes.recursive_tree


@dataclass(frozen=True)
class EcoSlot:
    """Targets of one ``eco_session`` round."""

    audit_root: int
    where_used: int
    checkout_root: int
    eco_obids: Tuple[int, ...]


#: The ECO writer's statement; one per renamed assembly.
ECO_SQL = "UPDATE assy SET name = ? WHERE obid = ?"


def readback_sql(names: Dict[int, str]) -> str:
    """The ECO writer's read-back of its renamed rows, with the values
    inlined as an ad-hoc query tool sends them.  The new names carry the
    round number, so the text is new every round and misses the plan
    cache: it makes the parser and planner work in every round."""
    obids = ", ".join(str(obid) for obid in names)
    values = ", ".join(f"'{name}'" for name in names.values())
    return f"SELECT obid, name FROM assy WHERE obid IN ({obids}) AND name IN ({values})"


class EcoSession(Workload):
    name = "eco_session"
    why = (
        "READ ONLY audits beside durable ECO check-out/update/check-in "
        "rounds: the only workload that writes, logs, versions and locks"
    )

    @property
    def tree(self) -> TreeParameters:
        return self.sizes.recursive_tree

    def auditable(self, product: GeneratedProduct) -> List[int]:
        """Visible level-:data:`ECO_LEVEL` assemblies whose visible subtree
        is within :data:`AUDIT_TOLERANCE` of the expected size."""
        expected = expected_visible_subtree(self.tree, ECO_LEVEL)
        return [
            obid
            for obid in self.assemblies(product)
            if obid in product.visible_obids
            and in_band(len(visible_edges(product, obid)) + 1, expected, AUDIT_TOLERANCE)
        ]

    def accept_product(self, product: GeneratedProduct) -> bool:
        return bool(self.auditable(product))

    @staticmethod
    def assemblies(product: GeneratedProduct) -> List[int]:
        """All level-:data:`ECO_LEVEL` assemblies, visible or not."""
        depth = levels(product)
        return sorted(a.obid for a in product.assemblies if depth[a.obid] == ECO_LEVEL)

    def schedule(self, stack: Stack) -> List[EcoSlot]:
        """The seeded round targets (repeated every ``eco_period`` rounds)."""
        product = stack.product
        assemblies = self.assemblies(product)
        auditable = self.auditable(product)
        components = sorted(
            c.obid for c in product.components if c.obid in product.visible_obids
        )
        if not auditable or not components:
            raise BenchmarkError(
                f"product seed {self.product_seed} has no auditable level-{ECO_LEVEL} "
                f"assembly or no visible component"
            )
        assembly_ids = {a.obid for a in product.assemblies}
        rng = random.Random(f"eco-schedule:{self.seed}")
        slots = []
        for __ in range(self.sizes.eco_period):
            checkout_root = rng.choice(assemblies)
            renamable = sorted(o for o in subtree(product, checkout_root) if o in assembly_ids)
            slots.append(
                EcoSlot(
                    audit_root=rng.choice(auditable),
                    where_used=rng.choice(components),
                    checkout_root=checkout_root,
                    eco_obids=tuple(
                        rng.sample(renamable, min(self.sizes.eco_updates, len(renamable)))
                    ),
                )
            )
        return slots

    def setup(self) -> Stack:
        product = build_product(self.tree, self.product_seed)
        stack = durable_session_stack(product)
        stack.state["schedule"] = self.schedule(stack)
        #: obid -> name the latest committed ECO gave it.
        stack.state["names"] = {}
        self.action(stack, -1)
        return stack

    def action(self, stack: Stack, index: int) -> Any:
        slot = stack.state["schedule"][index % len(stack.state["schedule"])]
        auditor, writer = stack.clients
        audit_conn, writer_conn = auditor.connection, writer.connection
        audit_conn.begin(read_only=True)
        try:
            expand = auditor.multi_level_expand(
                slot.audit_root, ExpandStrategy.EXPAND_BATCHED
            )
            used = auditor.where_used(slot.where_used, ExpandStrategy.RECURSIVE_EARLY)
        except ReproError:
            audit_conn.rollback()
            raise
        audit_conn.commit()
        audited_names = dict(stack.state["names"])
        checked_out = writer.check_out(
            slot.checkout_root, CheckOutMode.SERVER_PROCEDURE
        ).checked_out
        try:
            names = {
                obid: f"ECO-{index + 1:08d}-{position}"
                for position, obid in enumerate(slot.eco_obids)
            }
            writer_conn.begin()
            try:
                for obid, name in names.items():
                    writer_conn.execute(ECO_SQL, [name, obid])
                readback = writer_conn.execute(readback_sql(names)).rows
            except ReproError:
                writer_conn.rollback()
                raise
            writer_conn.commit()
            stack.state["names"].update(names)
        finally:
            checked_in = writer.check_in(
                slot.checkout_root, CheckOutMode.SERVER_PROCEDURE
            ).checked_out
        return (
            slot,
            expand.tree,
            used.objects,
            checked_out,
            checked_in,
            audited_names,
            names,
            readback,
        )

    @staticmethod
    def _expected_name(names: Dict[int, str], attrs: Dict[str, Any]) -> Any:
        obid = attrs["obid"]
        if attrs["type"] == "assy":
            return names.get(obid, f"Assy{obid}")
        return f"Comp{obid}"

    def check(self, stack: Stack, index: int, outcome: Any) -> List[str]:
        slot, tree, ancestors, checked_out, checked_in, names, renamed, readback = outcome
        product = stack.product
        problems = []
        if tree is None or tree_edges(tree) != visible_edges(product, slot.audit_root):
            problems.append(
                f"round {index}: READ ONLY expand of {slot.audit_root} is not "
                f"its visible subtree"
            )
        else:
            for node in tree.iter_nodes():
                expected = self._expected_name(names, node.attrs)
                if node.attrs["name"] != expected:
                    problems.append(
                        f"round {index}: audit read name {node.attrs['name']!r} "
                        f"for {node.obid}, last committed ECO says {expected!r}"
                    )
                    break
        parent = {link.right: link for link in product.links}
        expected = []
        current, distance = slot.where_used, 0
        while current in parent:
            distance += 1
            link = parent[current]
            expected.append((link.left, link.obid, distance))
            current = link.left
        found = [(a["obid"], a["via_link"], a["distance"]) for a in ancestors]
        if found != sorted(expected, key=lambda item: (item[2], item[0])):
            problems.append(f"round {index}: where-used of {slot.where_used} is wrong")
        if sorted(tuple(row) for row in readback) != sorted(renamed.items()):
            problems.append(
                f"round {index}: the ECO writer read back {sorted(readback)}, "
                f"it wrote {sorted(renamed.items())}"
            )
        size = len(subtree(product, slot.checkout_root))
        if len(checked_out) != size or len(checked_in) != size:
            problems.append(
                f"round {index}: checked out {len(checked_out)} and in "
                f"{len(checked_in)} of the {size} objects below "
                f"{slot.checkout_root}"
            )
        return problems

    def finish(self, stack: Stack) -> List[str]:
        database = stack.database
        problems = []
        names = dict(database.execute("SELECT obid, name FROM assy").rows)
        wrong = [
            obid
            for obid, name in names.items()
            if name != self._expected_name(stack.state["names"], {"obid": obid, "type": "assy"})
        ]
        if wrong:
            problems.append(f"{len(wrong)} assy names differ from the last ECO, e.g. {wrong[0]}")
        for table in ("assy", "comp"):
            left = database.execute(
                f"SELECT COUNT(*) FROM {table} WHERE checkedout = TRUE"
            ).scalar()
            if left:
                problems.append(f"{left} {table} rows are still checked out")
        recovered = Durability(
            disk=stack.durability.disk, db_kwargs={"mvcc": True}
        ).recover()
        for table in ("assy", "comp", "link"):
            query = f"SELECT * FROM {table} ORDER BY obid"
            if recovered.execute(query).rows != database.execute(query).rows:
                problems.append(f"recovery from the final disk changes table {table}")
        return problems


WORKLOADS = {cls.name: cls for cls in (NavLate, Recursive, EcoSession)}


def make_workload(name: str, seed: int, sizes: Optional[Sizes] = None) -> Workload:
    return WORKLOADS[name](seed, sizes if sizes is not None else Sizes())
