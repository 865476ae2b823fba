"""Natural-loop detection and the nesting forest."""

from repro.cfg import CFG, LoopForest
from repro.ir import parse_function

NESTED = """
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


def forest_of(source: str) -> LoopForest:
    return LoopForest(CFG.from_function(parse_function(source)))


def test_simple_loop_found():
    forest = forest_of(
        "func f(n) {\nentry:\n  i = move 0\nhead:\n"
        "  br lt i, n ? body : exit\nbody:\n  i = add i, 1\n  jump head\n"
        "exit:\n  ret i\n}"
    )
    assert len(forest) == 1
    loop = forest.loops[0]
    assert loop.header == "head"
    assert loop.body == {"head", "body"}
    assert loop.back_edges == [("body", "head")]


def test_no_loops_in_dag():
    forest = forest_of(
        "func f(n) {\nentry:\n  br lt n, 0 ? a : b\na:\n  jump c\n"
        "b:\n  jump c\nc:\n  ret n\n}"
    )
    assert len(forest) == 0
    assert forest.loop_of("a") is None


def test_nested_loops_structure():
    forest = forest_of(NESTED)
    assert len(forest) == 2
    outer = forest.loop_with_header("outer")
    inner = forest.loop_with_header("inner")
    assert inner.parent is outer
    assert inner in outer.children
    assert outer.parent is None
    assert outer.depth == 1
    assert inner.depth == 2


def test_inner_body_contained_in_both():
    forest = forest_of(NESTED)
    outer = forest.loop_with_header("outer")
    inner = forest.loop_with_header("inner")
    assert "inner_body" in inner.body
    assert "inner_body" in outer.body
    assert "outer_next" in outer.body
    assert "outer_next" not in inner.body


def test_loop_of_returns_innermost():
    forest = forest_of(NESTED)
    assert forest.loop_of("inner_body").header == "inner"
    assert forest.loop_of("outer_next").header == "outer"
    assert forest.loop_of("done") is None


def test_two_back_edges_merge_into_one_loop():
    forest = forest_of(
        """
func f(n) {
entry:
  i = move 0
head:
  br lt i, n ? body : exit
body:
  parity = mod i, 2
  i = add i, 1
  br eq parity, 0 ? even_back : odd_back
even_back:
  jump head
odd_back:
  jump head
exit:
  ret i
}
"""
    )
    assert len(forest) == 1
    loop = forest.loops[0]
    assert len(loop.back_edges) == 2
    assert loop.body == {"head", "body", "even_back", "odd_back"}


def test_self_loop():
    forest = forest_of(
        "func f(n) {\nentry:\n  i = move 0\nspin:\n  i = add i, 1\n"
        "  br lt i, n ? spin : out\nout:\n  ret i\n}"
    )
    assert len(forest) == 1
    assert forest.loops[0].body == {"spin"}
    assert forest.loops[0].back_edges == [("spin", "spin")]
