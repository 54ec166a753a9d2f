"""Text syntax for homogeneous polynomials and named ideal builders.

Grammar: variables x1..xN (x_1..x_N also accepted), integer coefficients,
operators + - * ^ and parentheses, whitespace anywhere.  Parsing enforces
homogeneity and reports positions on syntax errors.
"""

from __future__ import annotations

import re

from .ideals import (HomogeneousIdeal, NonHomogeneousGenerator, family_8points,
                     family_delta, family_I1, family_I2, family_J,
                     family_twisted_cubic_cone,
                     generic_ideal_with_hilbert_function, ideal_from_generators,
                     power_of_max_ideal)
from .linalg import FieldSpec
from .ring import HomogeneousElement, RingCtx


class PolySyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NotHomogeneous(NonHomogeneousGenerator):
    def __init__(self, degrees):
        super().__init__(f"mixed degrees {sorted(degrees)}")
        self.degrees = degrees


class UnknownVariable(ValueError):
    pass


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>x_?\d+)|(?P<op>[-+*^()]))")
# the builtin ideal specs and the head "name(N)", compiled once at import
_POWER_SPEC = re.compile(r"m\^(\d+):(\d+)")
_CUTOFF_SPEC = re.compile(r"(delta|J):(\d+)")
_I2_SPEC = re.compile(r"I2:(\d+)")
_I1_SPEC = re.compile(r"I1:(\d+),(\d+)")
_HEAD_N = re.compile(r"\w+\((\d+)\)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolySyntaxError(f"unexpected character {stripped[0]!r}",
                                  len(text) - len(stripped))
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "var":
            idx = int(m.group("var").replace("_", "")[1:])
            tokens.append(("var", idx, m.start("var")))
        else:
            tokens.append((m.group("op"), None, m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over {+,-,*,^,(,)}; values are monomial->int dicts."""

    def __init__(self, tokens, n: int):
        self.tokens = tokens
        self.i = 0
        self.n = n

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.take()
        if t[0] != kind:
            raise PolySyntaxError(f"expected {kind!r}, found {t[0]!r}", t[2])
        return t

    def parse(self) -> dict:
        v = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise PolySyntaxError(f"trailing input {t[0]!r}", t[2])
        return v

    def expr(self) -> dict:
        v = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            w = self.term()
            v = _poly_add(v, w, -1 if op == "-" else 1)
        return v

    def term(self) -> dict:
        v = self.factor()
        while self.peek()[0] == "*":
            self.take()
            v = _poly_mul(v, self.factor())
        return v

    def factor(self) -> dict:
        v = self.base()
        if self.peek()[0] == "^":
            self.take()
            t = self.expect("int")
            out = {(0,) * self.n: 1}
            for _ in range(t[1]):
                out = _poly_mul(out, v)
            return out
        return v

    def base(self) -> dict:
        t = self.take()
        if t[0] == "int":
            return {(0,) * self.n: t[1]}
        if t[0] == "var":
            if not 1 <= t[1] <= self.n:
                raise UnknownVariable(f"x{t[1]} outside x1..x{self.n}")
            e = [0] * self.n
            e[t[1] - 1] = 1
            return {tuple(e): 1}
        if t[0] == "(":
            v = self.expr()
            self.expect(")")
            return v
        if t[0] == "-":
            return _poly_add({}, self.factor(), -1)
        raise PolySyntaxError(f"unexpected token {t[0]!r}", t[2])


def _poly_add(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for m, c in b.items():
        t = out.get(m, 0) + sign * c
        if t == 0:
            out.pop(m, None)
        else:
            out[m] = t
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            t = out.get(m, 0) + ca * cb
            if t == 0:
                out.pop(m, None)
            else:
                out[m] = t
    return out


def parse_polynomial(text: str, ctx: RingCtx, fld: FieldSpec) -> HomogeneousElement:
    """Parse a homogeneous polynomial; exact integer coefficients."""
    poly = _Parser(_tokenize(text), ctx.n).parse()
    degrees = {sum(m) for m in poly}
    if len(degrees) > 1:
        raise NotHomogeneous(degrees)
    degree = degrees.pop() if degrees else 0
    return HomogeneousElement.from_exponents(ctx, fld, degree, poly)


# ---------------------------------------------------------- ideal builders


class IdealSpecError(ValueError):
    pass


def parse_ideal_spec(spec: str, fld: FieldSpec, n: int | None = None,
                     cutoff: int | None = None,
                     ctx_cache: dict | None = None) -> HomogeneousIdeal:
    """Builtins (delta:n, J:n, I2:n, I1:n,s, m^k:n, 8points, twistedcone,
    generic:q=(...),seed=S[,n=N]), inline generators (gens(n): p1; p2; ...)
    or a file of one polynomial per line (file(n):path).  Only gens, file,
    delta, J and twistedcone read ``cutoff``; the others refuse one."""
    spec = spec.strip()
    ctx_cache = ctx_cache if ctx_cache is not None else {}

    def ctx_for(m: int) -> RingCtx:
        if m not in ctx_cache:
            ctx_cache[m] = RingCtx(m)
        return ctx_cache[m]

    if spec.startswith("gens"):
        head, _, body = spec.partition(":")
        nn = _spec_n(head, n)
        ctx = ctx_for(nn)
        gens = [parse_polynomial(p, ctx, fld) for p in body.split(";") if p.strip()]
        return ideal_from_generators(ctx, fld, gens, cutoff=cutoff)
    if spec.startswith("file"):
        head, _, path = spec.partition(":")
        nn = _spec_n(head, n)
        ctx = ctx_for(nn)
        with open(path) as fh:
            gens = [parse_polynomial(line, ctx, fld)
                    for line in fh if line.strip() and not line.startswith("#")]
        return ideal_from_generators(ctx, fld, gens, cutoff=cutoff)
    if spec.startswith("generic:"):
        body = spec[len("generic:"):]
        params = dict(_split_params(body))
        if "q" not in params or "seed" not in params:
            raise IdealSpecError("generic needs q=(...) and seed=<int>")
        q = tuple(_spec_int(t, spec) for t in params["q"].strip("()").split(",") if t.strip())
        _no_cutoff(spec, cutoff)
        nn = _spec_int(params["n"], spec) if "n" in params else \
            (n if n is not None else q[1] if len(q) > 1 else 1)
        return generic_ideal_with_hilbert_function(ctx_for(nn), fld, q,
                                                   _spec_int(params["seed"], spec))
    if spec == "8points":
        _no_cutoff(spec, cutoff)
        return family_8points(ctx_for(4), fld)
    if spec == "twistedcone":
        return family_twisted_cubic_cone(ctx_for(4), fld,
                                         cutoff=3 if cutoff is None else cutoff)
    m = _POWER_SPEC.fullmatch(spec)
    if m:
        _no_cutoff(spec, cutoff)
        return power_of_max_ideal(ctx_for(int(m.group(2))), fld, int(m.group(1)))
    m = _CUTOFF_SPEC.fullmatch(spec)
    if m:
        build = family_delta if m.group(1) == "delta" else family_J
        return build(ctx_for(int(m.group(2))), fld, cutoff=6 if cutoff is None else cutoff)
    m = _I2_SPEC.fullmatch(spec)
    if m:
        _no_cutoff(spec, cutoff)
        return family_I2(ctx_for(int(m.group(1))), fld)
    m = _I1_SPEC.fullmatch(spec)
    if m:
        _no_cutoff(spec, cutoff)
        return family_I1(ctx_for(int(m.group(1))), fld, int(m.group(2)))
    raise IdealSpecError(f"cannot parse ideal spec {spec!r}")


def _no_cutoff(spec: str, cutoff: int | None) -> None:
    """Refuse a cutoff for a builtin whose construction does not read one."""
    if cutoff is not None:
        raise IdealSpecError(f"a cutoff does not apply to {spec!r}")


def _spec_int(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise IdealSpecError(f"cannot parse ideal spec {spec!r}: {text.strip()!r} "
                             "is not an integer") from None


def _spec_n(head: str, n: int | None) -> int:
    m = _HEAD_N.fullmatch(head)
    if m:
        return int(m.group(1))
    if n is None:
        raise IdealSpecError("number of variables not given; use gens(N):... or --n")
    return n


def _split_params(body: str):
    """Split k=v pairs on commas that are not inside parentheses."""
    depth = 0
    cur = ""
    parts = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur:
        parts.append(cur)
    for p in parts:
        k, _, v = p.partition("=")
        yield k.strip(), v.strip()


def parse_nesting_spec(spec: str, fld: FieldSpec, n: int | None = None):
    from .ideals import Nesting

    ctx_cache: dict = {}
    ideals = [parse_ideal_spec(part, fld, n=n, ctx_cache=ctx_cache)
              for part in spec.split(">")]
    return Nesting(ideals)
