"""SSA construction and destruction for the shared IR.

Construction is the classic Cytron algorithm driven by the PR 5
dominator analysis in :mod:`repro.dataflow`: compute the dominator tree
and its dominance frontiers, place phis at the iterated frontier of
every multi-def virtual register (semi-pruned: block-local temporaries
never get phis), then rename along a preorder walk of the dominator
tree so every register has exactly one static assignment.  Renaming
mutates instructions in place — operands and ``dst`` are rewritten but
the instruction objects survive, so ``instr.loc``/``instr.synthetic``
annotations (and therefore ``repro lint`` output) are untouched by a
round-trip through the mid-end.

Destruction splits critical edges, then lowers each block's phis as one
*parallel copy* per incoming edge, sequentialized with a fresh
temporary when the copies form a cycle (the classic swap problem).
After destruction the function is ordinary multi-def IR again, ready
for the register allocators, the lowerer, and the interpreter — none of
which ever see a phi.
"""

from __future__ import annotations

from .function import Function
from .instructions import CondBr, Jump, Move, Phi
from .types import Type
from .values import Const, VReg


# --------------------------------------------------------------------------
# Dominator tree + dominance frontiers
# --------------------------------------------------------------------------

class DomTree:
    """Immediate dominators, tree children, preorder, and dominance
    frontiers for the reachable blocks of one function.

    ``dominates(a, b)`` answers in O(1) via preorder/exit numbering of
    the dominator tree.  Built by :func:`domtree`; cached by the pass
    manager under the ``"domtree"`` analysis key.
    """

    __slots__ = ("root", "idom", "children", "frontiers", "preorder",
                 "_tin", "_tout")

    def __init__(self, root, idom, children, frontiers):
        self.root = root
        self.idom = idom
        self.children = children
        self.frontiers = frontiers
        self.preorder = []
        self._tin = {}
        self._tout = {}
        clock = 0
        stack = [(root, False)]
        while stack:
            label, leaving = stack.pop()
            if leaving:
                self._tout[label] = clock
                clock += 1
                continue
            self._tin[label] = clock
            clock += 1
            self.preorder.append(label)
            stack.append((label, True))
            for child in reversed(children.get(label, ())):
                stack.append((child, False))

    def dominates(self, a: str, b: str) -> bool:
        """True when ``a`` dominates ``b`` (inclusive)."""
        if a not in self._tin or b not in self._tin:
            return False
        return self._tin[a] <= self._tin[b] and self._tout[b] <= self._tout[a]

    def __repr__(self):
        return f"<domtree root={self.root} blocks={len(self.idom)}>"


def domtree(func: Function) -> DomTree:
    """Dominator tree + frontiers over the reachable blocks of ``func``.

    Immediate dominators are derived from the dominator *sets* of the
    shared dataflow framework (``repro.dataflow.dominators``); frontiers
    use the Cooper–Harvey–Kennedy walk from each join point up the
    idom chain.
    """
    from ..dataflow import dominators as dom_sets

    dom = dom_sets(func)
    # idom(b) is b's strict dominator with the largest dominator set.
    idom = {}
    for label, doms in dom.items():
        if label == func.entry:
            idom[label] = None
            continue
        strict = doms - {label}
        idom[label] = max(strict, key=lambda d: len(dom[d])) if strict \
            else None
    children = {label: [] for label in dom}
    for label, parent in idom.items():
        if parent is not None:
            children[parent].append(label)
    for kids in children.values():
        kids.sort()

    frontiers = {label: set() for label in dom}
    preds = func.predecessors()
    for label in dom:
        ins = [p for p in preds.get(label, []) if p in dom]
        if len(ins) < 2:
            continue
        for pred in ins:
            runner = pred
            while runner is not None and runner != idom[label]:
                frontiers[runner].add(label)
                runner = idom[runner]
    return DomTree(func.entry, idom, children, frontiers)


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------

def _zero(ty: Type) -> Const:
    return Const(0 if ty.is_int else 0.0, ty)


def _drop_unreachable(func: Function) -> bool:
    reachable = func.reachable_blocks()
    dead = [label for label in func.blocks if label not in reachable]
    for label in dead:
        del func.blocks[label]
    return bool(dead)


def _ensure_virgin_entry(func: Function) -> None:
    """Give the entry block no predecessors (a loop back edge into the
    entry would otherwise need a phi with a nonexistent 'from outside'
    edge)."""
    preds = func.predecessors()
    if not preds.get(func.entry):
        return
    old = func.entry
    pre = func.new_block("entry_")
    pre.term = Jump(old)
    func.entry = pre.label


def construct_ssa(func: Function, dt: DomTree = None) -> int:
    """Convert ``func`` to SSA form; returns the number of phis placed.

    Unreachable blocks are dropped first (renaming walks the dominator
    tree, which only covers reachable code).  Registers with a single
    definition site are already SSA and keep their names; multi-def
    registers are split into fresh versions with phis at the iterated
    dominance frontier of their definition blocks.
    """
    if func.ssa:
        return 0
    changed_cfg = _drop_unreachable(func)
    entry_before = func.entry
    _ensure_virgin_entry(func)
    changed_cfg |= func.entry != entry_before
    if dt is None or changed_cfg:
        dt = domtree(func)

    # Definition sites, types, and display names per register id.
    def_blocks: dict[int, set] = {}
    reg_of: dict[int, VReg] = {}
    for param in func.params:
        def_blocks.setdefault(param.id, set()).add(func.entry)
        reg_of[param.id] = param
    for label, block in func.blocks.items():
        for instr in block.all_instrs():
            for reg in instr.defs():
                def_blocks.setdefault(reg.id, set()).add(label)
                reg_of[reg.id] = reg

    # Semi-pruned filter: registers live across a block boundary (used
    # before any same-block definition).  Purely block-local
    # temporaries never need phis.
    nonlocal_ids = set()
    for block in func.blocks.values():
        seen = set()
        for instr in block.all_instrs():
            for reg in instr.uses():
                if reg.id not in seen:
                    nonlocal_ids.add(reg.id)
            for reg in instr.defs():
                seen.add(reg.id)

    # Phi placement at the iterated dominance frontier.
    phi_var: dict[int, int] = {}       # id(phi) -> original register id
    phis_of: dict[str, list] = {label: [] for label in func.blocks}
    placed = 0
    for vid in sorted(def_blocks):
        sites = def_blocks[vid]
        if len(sites) < 2 or vid not in nonlocal_ids:
            continue
        proto = reg_of[vid]
        has_phi = set()
        work = sorted(sites)
        while work:
            label = work.pop()
            for join in sorted(dt.frontiers.get(label, ())):
                if join in has_phi:
                    continue
                has_phi.add(join)
                phi = Phi(VReg(vid, proto.ty, proto.name), {})
                func.blocks[join].instrs.insert(0, phi)
                phis_of[join].append(phi)
                phi_var[id(phi)] = vid
                placed += 1
                if join not in sites:
                    work.append(join)

    _rename(func, dt, phi_var, phis_of)
    func.ssa = True
    return placed


def _rename(func: Function, dt: DomTree, phi_var, phis_of) -> None:
    """Cytron renaming along a preorder walk of the dominator tree."""
    stacks: dict[int, list] = {}
    for param in func.params:
        stacks[param.id] = [param]

    def current(reg: VReg):
        stack = stacks.get(reg.id)
        return stack[-1] if stack else None

    # (label, None) enters a block, (label, pushed) leaves it.
    work = [(dt.root, None)]
    while work:
        label, pushed = work.pop()
        if pushed is not None:
            for vid in reversed(pushed):
                stacks[vid].pop()
            continue
        block = func.blocks[label]
        pushed = []

        def define(orig: VReg) -> VReg:
            fresh = func.new_vreg(orig.ty, orig.name)
            stacks.setdefault(orig.id, []).append(fresh)
            pushed.append(orig.id)
            return fresh

        for instr in block.all_instrs():
            if isinstance(instr, Phi):
                instr.dst = define(instr.dst)
                continue
            mapping = {}
            for reg in instr.uses():
                version = current(reg)
                if version is not None and version is not reg:
                    mapping[reg] = version
            if mapping:
                instr.replace_uses(mapping)
            for reg in instr.defs():
                # Every def-carrying instruction exposes its result as
                # ``dst`` (Move/BinOp/UnOp/Load/Lea/GetGlobal/Calls).
                instr.dst = define(reg)

        for succ in block.successors():
            for phi in phis_of.get(succ, ()):
                vid = phi_var[id(phi)]
                stack = stacks.get(vid)
                value = stack[-1] if stack else _zero(phi.dst.ty)
                phi.incoming[label] = value

        work.append((label, pushed))
        for child in reversed(dt.children.get(label, ())):
            work.append((child, None))


# --------------------------------------------------------------------------
# Destruction
# --------------------------------------------------------------------------

def split_critical_edges(func: Function) -> int:
    """Split edges from a multi-successor block into a multi-predecessor
    block by inserting a forwarding block; returns the number split.

    Phi ``incoming`` labels are retargeted to the new edge blocks, so
    this is safe (and required) while in SSA form; the register
    allocators also benefit from the phi copies landing on the edge
    rather than in a shared predecessor.
    """
    preds = func.predecessors()
    split = 0
    for label in list(func.blocks):
        block = func.blocks[label]
        incoming = preds.get(label, [])
        if len(incoming) < 2:
            continue
        for pred_label in incoming:
            pred = func.blocks[pred_label]
            if len(set(pred.successors())) < 2:
                continue
            if not isinstance(pred.term, CondBr):
                continue
            edge = func.new_block(f"crit_{pred_label}_")
            edge.term = Jump(label)
            term = pred.term
            if term.if_true == label:
                term.if_true = edge.label
            if term.if_false == label:
                term.if_false = edge.label
            for instr in block.instrs:
                if isinstance(instr, Phi):
                    instr.rename_label(pred_label, edge.label)
            split += 1
    return split


def sequentialize_copies(func: Function, pairs) -> list:
    """Order a parallel copy ``[(dst, src), ...]`` into sequential Moves.

    Emits a move only once nothing still pending reads its destination;
    cycles (the swap problem) are broken by saving one destination's
    current value in a fresh temporary first.
    """
    pending = [(dst, src) for dst, src in pairs
               if not (isinstance(src, VReg) and src.id == dst.id)]
    moves = []
    while pending:
        reads = {}
        for _, src in pending:
            if isinstance(src, VReg):
                reads[src.id] = reads.get(src.id, 0) + 1
        ready = [(d, s) for d, s in pending if d.id not in reads]
        if ready:
            ready_ids = {d.id for d, _ in ready}
            for dst, src in ready:
                moves.append(Move(dst, src))
            pending = [(d, s) for d, s in pending if d.id not in ready_ids]
            continue
        # Every pending destination is still read: a cycle.  Save one
        # destination's current value and redirect its readers.
        dst, _ = pending[0]
        temp = func.new_vreg(dst.ty, dst.name)
        moves.append(Move(temp, dst))
        pending = [(d, temp if isinstance(s, VReg) and s.id == dst.id else s)
                   for d, s in pending]
    return moves


def remove_trivial_phis(func: Function) -> int:
    """Delete phis whose incoming operands are all the same value (or
    the phi itself), rewriting uses to that value; returns the number
    removed.  Iterates, since removing one phi can make another
    trivial.  Keeps destruction from materializing useless copies and
    makes construct/destruct round trips reach a steady state.
    """
    removed = 0
    while True:
        repl = {}
        for block in func.blocks.values():
            for instr in block.instrs:
                if not isinstance(instr, Phi):
                    continue
                operands = {(v.id if isinstance(v, VReg) else v)
                            for v in instr.incoming.values()
                            if not (isinstance(v, VReg)
                                    and v.id == instr.dst.id)}
                if len(operands) == 1:
                    value = next(v for v in instr.incoming.values()
                                 if not (isinstance(v, VReg)
                                         and v.id == instr.dst.id))
                    repl[instr.dst] = value
        if not repl:
            return removed
        # Resolve chains (phi of phi) before rewriting.
        for dst in list(repl):
            value = repl[dst]
            seen = {dst.id}
            while isinstance(value, VReg) and value in repl \
                    and value.id not in seen:
                seen.add(value.id)
                value = repl[value]
            repl[dst] = value
        doomed = {dst.id for dst in repl}
        for block in func.blocks.values():
            block.instrs = [i for i in block.instrs
                            if not (isinstance(i, Phi)
                                    and i.dst.id in doomed)]
            for instr in block.all_instrs():
                instr.replace_uses(repl)
        removed += len(doomed)


def _ssa_liveness(func: Function):
    """Block-level live-in/live-out over SSA values, phi-aware: a phi
    operand is a use at the tail of the corresponding predecessor (not
    a live-in of the phi's block), and a phi def happens at block entry.
    Returns ``(live_in, live_out)`` as sets of register ids."""
    succs = {label: list(dict.fromkeys(block.successors()))
             for label, block in func.blocks.items()}
    upward, defs = {}, {}
    edge_uses: dict[tuple, set] = {}
    for label, block in func.blocks.items():
        used, defined = set(), set()
        for instr in block.all_instrs():
            if isinstance(instr, Phi):
                defined.add(instr.dst.id)
                for pred_label, value in instr.incoming.items():
                    if isinstance(value, VReg):
                        edge_uses.setdefault((pred_label, label),
                                             set()).add(value.id)
                continue
            for reg in instr.uses():
                if reg.id not in defined:
                    used.add(reg.id)
            for reg in instr.defs():
                defined.add(reg.id)
        upward[label], defs[label] = used, defined

    live_in = {label: set() for label in func.blocks}
    live_out = {label: set() for label in func.blocks}
    order = list(func.blocks)
    changed = True
    while changed:
        changed = False
        for label in reversed(order):
            out = set()
            for succ in succs[label]:
                out |= live_in.get(succ, set())
                out |= edge_uses.get((label, succ), set())
            new_in = upward[label] | (out - defs[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label], live_in[label] = out, new_in
                changed = True
    return live_in, live_out


def coalesce_phi_webs(func: Function) -> int:
    """Merge each phi with its incoming values into one register where
    their live ranges do not interfere; returns registers coalesced.

    Non-trivial phis lower to copies on every incoming edge, and for
    loop-carried variables those copies land on the back edge — executed
    every iteration.  Coalescing the *phi web* (the phi's dst plus its
    VReg incomings, transitively through other phis) back into a single
    register elides those copies entirely, recovering the pre-SSA shape
    for the common induction-variable case.  Interference is checked at
    instruction granularity under SSA liveness, so webs that genuinely
    need a copy (lost-copy, swap) are split into interference-free
    classes and only the class-crossing edges pay one.
    """
    # Union-find the webs.  Function params keep their identity (they
    # are the ABI), and members must agree on type.
    param_ids = {p.id for p in func.params}
    parent: dict[int, int] = {}
    proto_of: dict[int, VReg] = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for block in func.blocks.values():
        for instr in block.instrs:
            if not isinstance(instr, Phi):
                continue
            dst = instr.dst
            if dst.id in param_ids:
                continue
            parent.setdefault(dst.id, dst.id)
            proto_of[dst.id] = dst
            for value in instr.incoming.values():
                if isinstance(value, VReg) and value.id not in param_ids \
                        and value.ty == dst.ty:
                    parent.setdefault(value.id, value.id)
                    proto_of[value.id] = value
                    union(dst.id, value.id)
    if not parent:
        return 0
    web_of = {vid: find(vid) for vid in parent}

    # Instruction-granularity interference, restricted to web members:
    # a def conflicts with every same-web value live just after it.
    _, live_out = _ssa_liveness(func)
    conflicts: set = set()
    for label, block in func.blocks.items():
        live = set(live_out[label])
        nonphi = [i for i in block.all_instrs() if not isinstance(i, Phi)]
        for instr in reversed(nonphi):
            for reg in instr.defs():
                live.discard(reg.id)
                web = web_of.get(reg.id)
                if web is not None:
                    for other in live:
                        if web_of.get(other) == web:
                            conflicts.add((min(reg.id, other),
                                           max(reg.id, other)))
            for reg in instr.uses():
                live.add(reg.id)
        # Phi defs happen in parallel at block entry: each conflicts
        # with whatever is live at the top and with its sibling dsts.
        phi_ids = {i.dst.id for i in block.instrs if isinstance(i, Phi)}
        for vid in phi_ids:
            web = web_of.get(vid)
            if web is None:
                continue
            for other in (live | phi_ids) - {vid}:
                if web_of.get(other) == web:
                    conflicts.add((min(vid, other), max(vid, other)))

    # Greedily split each web into interference-free classes; every
    # class of two or more collapses into one fresh register.
    members_by_web: dict[int, list] = {}
    for vid, web in web_of.items():
        members_by_web.setdefault(web, []).append(vid)
    rename: dict[VReg, VReg] = {}
    coalesced = 0
    for members in members_by_web.values():
        classes: list[list] = []
        for vid in sorted(members):
            for cls in classes:
                if all((min(vid, o), max(vid, o)) not in conflicts
                       for o in cls):
                    cls.append(vid)
                    break
            else:
                classes.append([vid])
        for cls in classes:
            if len(cls) < 2:
                continue
            proto = proto_of[cls[0]]
            rep = func.new_vreg(proto.ty, proto.name)
            for vid in cls:
                rename[proto_of[vid]] = rep
            coalesced += len(cls)
    if not rename:
        return 0
    for block in func.blocks.values():
        for instr in block.all_instrs():
            instr.replace_uses(rename)
            for reg in instr.defs():
                if reg in rename:
                    instr.dst = rename[reg]
    return coalesced


def destruct_ssa(func: Function) -> int:
    """Lower phis back to edge copies; returns the number eliminated."""
    if not func.ssa:
        return 0
    remove_trivial_phis(func)
    split_critical_edges(func)
    # After coalescing the function is no longer single-assignment, so
    # no SSA-only rewrites (like trivial-phi removal) may follow: a
    # fully-coalesced phi simply lowers to zero copies below.
    coalesce_phi_webs(func)
    preds = func.predecessors()
    eliminated = 0
    for label, block in list(func.blocks.items()):
        phis = [i for i in block.instrs if isinstance(i, Phi)]
        if not phis:
            continue
        incoming = preds.get(label, [])
        if len(incoming) <= 1:
            # Single predecessor (or none): the phis degenerate to a
            # parallel copy at the block head.
            source = incoming[0] if incoming else None
            pairs = [(phi.dst, phi.incoming.get(source, _zero(phi.dst.ty)))
                     for phi in phis]
            head = sequentialize_copies(func, pairs)
            block.instrs = head + [i for i in block.instrs
                                   if not isinstance(i, Phi)]
        else:
            for pred_label in incoming:
                pairs = [(phi.dst,
                          phi.incoming.get(pred_label, _zero(phi.dst.ty)))
                         for phi in phis]
                func.blocks[pred_label].instrs.extend(
                    sequentialize_copies(func, pairs))
            block.instrs = [i for i in block.instrs
                            if not isinstance(i, Phi)]
        eliminated += len(phis)
    func.ssa = False
    return eliminated
