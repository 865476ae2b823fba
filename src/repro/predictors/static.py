"""Static branch prediction (Section 2.1).

Implements Smith's simple heuristics and the Ball/Larus heuristic suite
in the paper's "most successful" order: Pointer, Call, Opcode, Return,
Store, Loop, Guard.  All of these examine only the program text — no
profile, no run-time state — and produce a fixed per-site prediction.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..cfg import CFG, DominatorTree, LoopForest
from ..ir import Branch, BranchSite, Call, Program, Return, Store
from .base import Predictor


class FixedMapPredictor(Predictor):
    """Predicts from a precomputed per-site direction map."""

    order_independent = True

    def __init__(
        self,
        name: str,
        predictions: Dict[BranchSite, bool],
        default: bool = True,
    ) -> None:
        super().__init__(name)
        self.predictions = predictions
        self.default = default

    def predict(self, site: BranchSite) -> bool:
        return self.predictions.get(site, self.default)


class AlwaysTaken(Predictor):
    """Smith: predict that all branches will be taken."""

    order_independent = True

    def __init__(self) -> None:
        super().__init__("always-taken")

    def predict(self, site: BranchSite) -> bool:
        return True


class AlwaysNotTaken(Predictor):
    """Predict that no branch is taken (baseline)."""

    order_independent = True

    def __init__(self) -> None:
        super().__init__("always-not-taken")

    def predict(self, site: BranchSite) -> bool:
        return False


def _block_order(program: Program) -> Dict[BranchSite, int]:
    """Positional index of each block, standing in for code addresses."""
    order: Dict[BranchSite, int] = {}
    for function in program:
        for index, block in enumerate(function.blocks.values()):
            order[BranchSite(function.name, block.label)] = index
    return order


def backward_taken(program: Program) -> FixedMapPredictor:
    """Smith: predict that all backward branches will be taken (BTFNT).

    "Backward" is judged by block layout order, our stand-in for code
    addresses.
    """
    order = _block_order(program)
    predictions: Dict[BranchSite, bool] = {}
    for function in program:
        for block in function:
            branch = block.branch
            if branch is None:
                continue
            site = BranchSite(function.name, block.label)
            target = BranchSite(function.name, branch.taken)
            predictions[site] = order.get(target, 0) <= order[site]
    return FixedMapPredictor("backward-taken", predictions)


_OPCODE_TAKEN = {"ne": True, "eq": False, "lt": False, "le": False, "gt": True, "ge": True}


def opcode_heuristic(program: Program) -> FixedMapPredictor:
    """Smith: decide the direction from the comparison opcode.

    Inequality tests are predicted taken (values are rarely equal);
    less-than tests (typically "is negative / error?") not taken;
    greater-or-equal taken.
    """
    predictions: Dict[BranchSite, bool] = {}
    for function in program:
        for block in function:
            branch = block.branch
            if branch is None:
                continue
            predictions[BranchSite(function.name, block.label)] = _OPCODE_TAKEN[
                branch.op
            ]
    return FixedMapPredictor("opcode", predictions)


# -- Ball/Larus -----------------------------------------------------------------


def _block_has(function, label: str, kinds) -> bool:
    block = function.block(label)
    instrs = list(block.instrs)
    if block.terminator is not None:
        instrs.append(block.terminator)
    return any(isinstance(instr, kinds) for instr in instrs)


def _heuristic_pointer(branch: Branch, **_) -> Optional[bool]:
    """Pointer comparisons: predict pointers unequal."""
    if not branch.pointer:
        return None
    if branch.op == "eq":
        return False
    if branch.op == "ne":
        return True
    return None


def _heuristic_call(branch: Branch, function=None, **_) -> Optional[bool]:
    """Avoid successors that call a subroutine."""
    taken_calls = _block_has(function, branch.taken, Call)
    fall_calls = _block_has(function, branch.not_taken, Call)
    if taken_calls and not fall_calls:
        return False
    if fall_calls and not taken_calls:
        return True
    return None


def _heuristic_opcode(branch: Branch, **_) -> Optional[bool]:
    """Decide on the branch instruction opcode (only for compares
    against zero, where the sign conventions are meaningful)."""
    if branch.rhs == 0 or branch.lhs == 0:
        return _OPCODE_TAKEN[branch.op]
    return None


def _heuristic_return(branch: Branch, function=None, **_) -> Optional[bool]:
    """Avoid successors that return from the function."""
    taken_rets = _block_has(function, branch.taken, Return)
    fall_rets = _block_has(function, branch.not_taken, Return)
    if taken_rets and not fall_rets:
        return False
    if fall_rets and not taken_rets:
        return True
    return None


def _heuristic_store(branch: Branch, function=None, **_) -> Optional[bool]:
    """Avoid successors that contain a store instruction."""
    taken_stores = _block_has(function, branch.taken, Store)
    fall_stores = _block_has(function, branch.not_taken, Store)
    if taken_stores and not fall_stores:
        return False
    if fall_stores and not taken_stores:
        return True
    return None


def _heuristic_loop(branch: Branch, block=None, forest=None, **_) -> Optional[bool]:
    """Predict that the loop branch will be taken: prefer the successor
    that is a back edge (or stays inside the loop when the other leaves)."""
    loop = forest.loop_of(block.label)
    if loop is None:
        return None
    taken_back = branch.taken == loop.header
    fall_back = branch.not_taken == loop.header
    if taken_back and not fall_back:
        return True
    if fall_back and not taken_back:
        return False
    taken_in = branch.taken in loop.body
    fall_in = branch.not_taken in loop.body
    if taken_in and not fall_in:
        return True
    if fall_in and not taken_in:
        return False
    return None


def _heuristic_guard(branch: Branch, function=None, **_) -> Optional[bool]:
    """Prefer the successor that uses the operands of the branch."""
    operands = set(branch.uses())
    if not operands:
        return None

    def block_uses(label: str) -> bool:
        block = function.block(label)
        for instr in block.instrs:
            if operands & set(instr.uses()):
                return True
            if operands & set(instr.defs()):
                return False
        return False

    taken_uses = block_uses(branch.taken)
    fall_uses = block_uses(branch.not_taken)
    if taken_uses and not fall_uses:
        return True
    if fall_uses and not taken_uses:
        return False
    return None


#: The paper's most successful order for non-loop branches.
BALL_LARUS_ORDER = (
    _heuristic_pointer,
    _heuristic_call,
    _heuristic_opcode,
    _heuristic_return,
    _heuristic_store,
    _heuristic_loop,
    _heuristic_guard,
)


def ball_larus(program: Program, default: bool = True) -> FixedMapPredictor:
    """Ball/Larus heuristic prediction over the whole program.

    Following [BL93], branches that control a loop (a back edge or a
    loop exit) are predicted by the *loop* heuristic before anything
    else — "predict that the loop branch will be taken"; the
    lexicographic heuristic order applies to the remaining branches.
    """
    predictions: Dict[BranchSite, bool] = {}
    for function in program:
        cfg = CFG.from_function(function)
        forest = LoopForest(cfg, DominatorTree(cfg))
        for block in function:
            branch = block.branch
            if branch is None:
                continue
            decision: Optional[bool] = _loop_controls(branch, block, forest)
            if decision is None:
                for heuristic in BALL_LARUS_ORDER:
                    decision = heuristic(
                        branch, function=function, block=block, forest=forest
                    )
                    if decision is not None:
                        break
            predictions[BranchSite(function.name, block.label)] = (
                decision if decision is not None else default
            )
    return FixedMapPredictor("ball-larus", predictions, default)


def _loop_controls(branch: Branch, block, forest) -> Optional[bool]:
    """The [BL93] loop-branch rule: if one arm is a back edge or stays
    in the loop while the other leaves it, predict the loop-continuing
    arm."""
    loop = forest.loop_of(block.label)
    if loop is None:
        return None
    taken_in = branch.taken in loop.body
    fall_in = branch.not_taken in loop.body
    if taken_in == fall_in:
        # Both stay (plain intra-loop branch) or both leave: the loop
        # rule says nothing; fall through to the heuristic chain.
        return None
    return taken_in


def static_predictors(program: Program) -> Iterable[Predictor]:
    """All static strategies, in presentation order."""
    return [
        AlwaysTaken(),
        AlwaysNotTaken(),
        backward_taken(program),
        opcode_heuristic(program),
        ball_larus(program),
    ]
