"""CFG construction, traversal orders and unreachable-block removal."""

import pytest

from repro.cfg import CFG, remove_unreachable_blocks
from repro.ir import BasicBlock, Branch, IRError, Jump, Return, parse_function, parse_program

DIAMOND = """
func f(n) {
entry:
  br lt n, 0 ? left : right
left:
  jump join
right:
  jump join
join:
  ret n
}
"""


def test_successors_and_predecessors():
    cfg = CFG.from_function(parse_function(DIAMOND))
    assert cfg.succs["entry"] == ("left", "right")
    assert sorted(cfg.preds["join"]) == ["left", "right"]
    assert cfg.preds["entry"] == []


def test_edges():
    cfg = CFG.from_function(parse_function(DIAMOND))
    assert ("entry", "left") in cfg.edges()
    assert len(cfg.edges()) == 4


def test_reachable_excludes_orphans():
    function = parse_function(
        DIAMOND.replace("join:", "orphan:\n  jump join\njoin:")
    )
    cfg = CFG.from_function(function)
    assert "orphan" not in cfg.reachable()
    assert cfg.reachable() == {"entry", "left", "right", "join"}


def test_postorder_ends_at_entry():
    cfg = CFG.from_function(parse_function(DIAMOND))
    order = cfg.postorder()
    assert order[-1] == "entry"
    assert set(order) == {"entry", "left", "right", "join"}


def test_reverse_postorder_starts_at_entry():
    cfg = CFG.from_function(parse_function(DIAMOND))
    rpo = cfg.reverse_postorder()
    assert rpo[0] == "entry"
    # A node appears after all its non-back-edge predecessors.
    assert rpo.index("join") > rpo.index("left")
    assert rpo.index("join") > rpo.index("right")


def test_rpo_with_loop():
    function = parse_function(
        "func f(n) {\nentry:\n  i = move 0\nhead:\n"
        "  br lt i, n ? body : exit\nbody:\n  i = add i, 1\n  jump head\n"
        "exit:\n  ret i\n}"
    )
    rpo = CFG.from_function(function).reverse_postorder()
    assert rpo.index("entry") < rpo.index("head") < rpo.index("body")


def test_remove_unreachable_blocks():
    program = parse_program(
        "func main() {\nentry:\n  ret\ndead1:\n  jump dead2\ndead2:\n  ret\n}"
    )
    removed = remove_unreachable_blocks(program.main_function())
    assert sorted(removed) == ["dead1", "dead2"]
    assert list(program.main_function().blocks) == ["entry"]


def test_remove_unreachable_keeps_live_cycle():
    program = parse_program(
        "func main(n) {\nentry:\n  i = move 0\nhead:\n"
        "  br lt i, n ? body : exit\nbody:\n  i = add i, 1\n  jump head\n"
        "exit:\n  ret i\n}"
    )
    assert remove_unreachable_blocks(program.main_function()) == []


def test_dangling_edge_is_an_ir_error():
    function = parse_function("func f() {\nentry:\n  jump nowhere\n}")
    with pytest.raises(IRError, match="'entry'.*'nowhere'"):
        CFG.from_function(function)


def _assert_current(cfg, function):
    fresh = CFG.from_function(function)
    assert list(cfg.succs.items()) == list(fresh.succs.items())
    assert cfg.preds == fresh.preds
    assert cfg.entry == fresh.entry
    assert cfg.size == function.size()


def test_edits_keep_the_cfg_current():
    function = parse_function(DIAMOND)
    cfg = CFG.from_function(function)
    assert cfg.size == function.size() == 4
    # Route entry's taken edge through a new block that joins late.
    cfg.reserve("left2")
    function.blocks["left2"] = BasicBlock("left2", [], Jump("join"))
    function.blocks["entry"].terminator = Branch("lt", "n", 0, "left2", "right")
    cfg.sync(["left2", "entry"])
    assert cfg.preds["join"] == ["left", "right", "left2"]
    assert cfg.remove_unreachable() == ["left"]
    _assert_current(cfg, function)
    # A new source earlier in the layout is inserted in layout order.
    function.blocks["right"].terminator = Jump("left2")
    cfg.sync(["right"])
    assert cfg.preds["left2"] == ["entry", "right"]
    assert cfg.remove_unreachable() == []
    _assert_current(cfg, function)


def test_remove_unreachable_finds_dead_cycles():
    function = parse_function(
        "func f(n) {\nentry:\n  jump head\nhead:\n"
        "  br lt n, 0 ? body : exit\nbody:\n  jump head\nexit:\n  ret n\n}"
    )
    cfg = CFG.from_function(function)
    assert cfg.remove_unreachable() == []
    # Bypass the loop: head and body keep each other as predecessors.
    function.blocks["entry"].terminator = Jump("exit")
    cfg.sync(["entry"])
    assert cfg.remove_unreachable() == ["head", "body"]
    _assert_current(cfg, function)


def test_set_entry_moves_the_entry():
    function = parse_function("func f() {\nentry:\n  jump done\ndone:\n  ret\n}")
    cfg = CFG.from_function(function)
    cfg.reserve("start")
    function.blocks["start"] = BasicBlock("start", [], Return())
    cfg.sync(["start"])
    cfg.set_entry("start")
    assert cfg.remove_unreachable() == ["entry", "done"]
    assert function.entry == "start"
    _assert_current(cfg, function)


def test_edit_errors():
    with pytest.raises(IRError):
        CFG("a", {"a": ()}).reserve("b")
    function = parse_function(DIAMOND)
    cfg = CFG.from_function(function)
    function.blocks["left"].terminator = Jump("nowhere")
    with pytest.raises(IRError, match="'left'.*'nowhere'"):
        cfg.sync(["left"])
