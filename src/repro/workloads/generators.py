"""Random structured-program generation for property-based tests.

``random_program`` builds a terminating program from a seed: a random
nest of counted loops, data-dependent conditionals and straight-line
arithmetic over a small register pool.  Termination is guaranteed
because every loop is counted with a bounded trip count; branch
*directions* inside loop bodies still depend on computed data, so the
programs exercise the whole prediction/replication pipeline.

These generators feed the hypothesis tests: any random program must
survive parsing round-trips, CFG/loop analysis, and — crucially —
replication must preserve its observable behaviour.
"""

from __future__ import annotations

import random
from typing import List

from ..ir import FunctionBuilder, Program, ProgramBuilder


class _Generator:
    def __init__(
        self,
        rng: random.Random,
        max_depth: int,
        fb: FunctionBuilder,
        callees: List[str] = (),
    ) -> None:
        self.rng = rng
        self.max_depth = max_depth
        self.fb = fb
        self.counter = 0
        #: registers known to hold values (usable as operands)
        self.values: List[str] = []
        #: single-argument helper functions this code may call
        self.callees = list(callees)

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def operand(self):
        if self.values and self.rng.random() < 0.7:
            return self.rng.choice(self.values)
        return self.rng.randint(-8, 8)

    def emit_straightline(self) -> None:
        fb = self.fb
        for _ in range(self.rng.randint(1, 3)):
            kind = self.rng.random()
            if kind < 0.5:
                op = self.rng.choice(["add", "sub", "mul", "xor", "min", "max"])
                dest = fb.binop(op, self.operand(), self.operand())
            elif kind < 0.65:
                dest = fb.const(self.rng.randint(-100, 100))
            elif kind < 0.8:
                dest = fb.binop("and", self.operand(), 0xFF)
            elif kind < 0.9 and self.callees:
                callee = self.rng.choice(self.callees)
                dest = fb.call(callee, [self.operand()])
            else:
                fb.output(self.operand())
                continue
            self.values.append(dest)

    def emit_block_structure(self, depth: int) -> None:
        """Emit a random sequence of statements at this nesting depth."""
        for _ in range(self.rng.randint(1, 3)):
            roll = self.rng.random()
            if depth < self.max_depth and roll < 0.35:
                self.emit_loop(depth)
            elif depth < self.max_depth and roll < 0.65:
                self.emit_if(depth)
            else:
                self.emit_straightline()

    def emit_if(self, depth: int) -> None:
        fb = self.fb
        self.counter += 1
        tag = self.counter
        op = self.rng.choice(["eq", "ne", "lt", "le", "gt", "ge"])
        then_label, else_label, join = (
            f"then{tag}",
            f"else{tag}",
            f"join{tag}",
        )
        fb.branch(op, self.operand(), self.operand(), then_label, else_label)
        # Registers defined inside an arm must not leak to code that can
        # execute without the arm: snapshot and restore the value pool.
        outer_values = list(self.values)
        fb.label(then_label)
        self.emit_straightline()
        if self.rng.random() < 0.5:
            self.emit_block_structure(depth + 1)
        fb.jump(join)
        self.values = list(outer_values)
        fb.label(else_label)
        self.emit_straightline()
        fb.jump(join)
        self.values = outer_values
        fb.label(join)

    def emit_loop(self, depth: int) -> None:
        fb = self.fb
        self.counter += 1
        tag = self.counter
        trips = self.rng.randint(1, 6)
        counter = f"i{tag}"
        fb.move(0, counter)
        head, body, exit_label = f"head{tag}", f"lbody{tag}", f"exit{tag}"
        fb.label(head)
        fb.branch("lt", counter, trips, body, exit_label)
        # Same scoping rule: body-local registers die at the back edge
        # (the loop may run zero times as far as later code knows).
        outer_values = list(self.values)
        fb.label(body)
        self.emit_straightline()
        if self.rng.random() < 0.6:
            self.emit_block_structure(depth + 1)
        fb.add(counter, 1, counter)
        fb.jump(head)
        self.values = outer_values
        fb.label(exit_label)


def random_program(
    seed: int, max_depth: int = 3, helpers: int = 0
) -> Program:
    """A deterministic random terminating program for property tests.

    With ``helpers > 0`` the program additionally contains that many
    single-argument helper functions (themselves random, call-free)
    which the main function may call — exercising the interpreter's
    call stack and frame-local path history.
    """
    rng = random.Random(seed)
    pb = ProgramBuilder()
    helper_names: List[str] = []
    for index in range(helpers):
        name = f"helper{index}"
        helper_names.append(name)
        hb = pb.function(name, ["a"])
        hgen = _Generator(rng, max_depth=1, fb=hb)
        hgen.values.append("a")
        hgen.emit_block_structure(0)
        result = hgen.operand()
        if isinstance(result, str):
            hb.ret(result)
        else:
            hb.ret(hb.const(result))
    fb = pb.function("main", ["n"])
    gen = _Generator(rng, max_depth, fb, callees=helper_names)
    gen.values.append("n")
    gen.emit_block_structure(0)
    result = gen.operand()
    if isinstance(result, str):
        fb.output(result)
        fb.ret(result)
    else:
        reg = fb.const(result)
        fb.output(reg)
        fb.ret(reg)
    return pb.build()
