"""Dominator tree tests, including the classic irreducible-ish shapes."""

from repro.cfg import CFG, DominatorTree
from repro.ir import parse_function


def domtree(source: str) -> DominatorTree:
    return DominatorTree(CFG.from_function(parse_function(source)))


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


def test_entry_dominates_everything():
    tree = domtree(DIAMOND)
    for label in ("entry", "left", "right", "join"):
        assert tree.dominates("entry", label)


def test_dominance_is_reflexive():
    tree = domtree(DIAMOND)
    assert tree.dominates("join", "join")


def test_diamond_join_dominated_by_entry_only():
    tree = domtree(DIAMOND)
    assert tree.idom["join"] == "entry"
    assert not tree.dominates("left", "join")
    assert not tree.dominates("right", "join")


def test_branch_arms_dominated_by_entry():
    tree = domtree(DIAMOND)
    assert tree.idom["left"] == "entry"
    assert tree.idom["right"] == "entry"


def test_entry_has_no_idom():
    # The entry is its own idom: it has no proper one.
    assert domtree(DIAMOND).idom["entry"] == "entry"


def test_chain_dominance():
    tree = domtree(
        "func f() {\na:\n  jump b\nb:\n  jump c\nc:\n  ret\n}"
    )
    assert tree.dominates("a", "c")
    assert tree.dominates("b", "c")
    assert tree.idom["c"] == "b"


def test_loop_header_dominates_body():
    tree = domtree(
        "func f(n) {\nentry:\n  i = move 0\nhead:\n"
        "  br lt i, n ? body : exit\nbody:\n  i = add i, 1\n  jump head\n"
        "exit:\n  ret i\n}"
    )
    assert tree.dominates("head", "body")
    assert tree.dominates("head", "exit")
    assert not tree.dominates("body", "head")


def test_depths_increase_down_tree():
    tree = domtree(DIAMOND)
    assert tree.depth["entry"] == 0
    assert tree.depth["left"] == 1
    assert tree.depth["join"] == 1


def test_two_loops_sharing_code():
    # Nested loops: inner header dominated by outer header.
    tree = domtree(
        """
func f(n) {
entry:
  i = move 0
outer:
  br lt i, n ? inner_init : done
inner_init:
  j = move 0
inner:
  br lt j, 3 ? inner_body : outer_next
inner_body:
  j = add j, 1
  jump inner
outer_next:
  i = add i, 1
  jump outer
done:
  ret i
}
"""
    )
    assert tree.dominates("outer", "inner")
    assert tree.dominates("inner", "inner_body")
    assert tree.idom["outer_next"] == "inner"


def test_unreachable_blocks_dominate_nothing_else():
    tree = domtree(
        "func f() {\na:\n  jump c\nb:\n  jump c\nc:\n  ret\n}"
    )
    assert "b" not in tree.idom
    assert not tree.dominates("b", "c")
    assert not tree.dominates("a", "b")
    assert tree.dominates("b", "b")
