"""Fourier-multiplier symbols l(k) and their admissibility checks.

A dissipative-dispersive operator is specified by its symbol l(k), written
in a small expression language over the angular wavenumber k (so that
d/dx corresponds to i*k).  Grammar:

    expr   := term  (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('+'|'-') unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | 'k' | 'i' | 'abs' '(' expr ')'
            | 'sgn' '(' expr ')' | '(' expr ')'

Every k-free subexpression is evaluated once, at parse time, by the same
evaluator that serves eval_symbol, and becomes one constant.  Exponents
must be constant (k-free); a non-integer exponent is only accepted on a
base that is provably real and nonnegative (e.g. abs(k)), as a constant
is when its finite value or the tree it was folded from shows it (1/0
does, -1/0 does not).  A real divisor divides as a real: 3/10 is 0.3.

SymbolSyntaxError carries the offset of the offending token: malformed
input, an unknown name or a non-finite literal; at its '^' an exponent
that depends on k, is not finite or is complex, or a sign-changing base;
at its 'sgn' a non-real constant argument.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SymbolError",
    "SymbolSyntaxError",
    "SymbolEvalError",
    "SymbolExpr",
    "AdmissibilityReport",
    "MultiplierSpec",
    "parse_symbol",
    "eval_symbol",
    "validate_admissibility",
    "admissibility_samples",
    "preset",
    "rescale_symbol",
]

CHECK_TOL = 1e-12


class SymbolError(ValueError):
    """Base error for the symbol language."""


class SymbolSyntaxError(SymbolError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class SymbolEvalError(SymbolError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Const(Node):
    value: complex
    # the k-free tree that the parser folded into this value, if any
    source: Node | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Wavenumber(Node):
    pass


@dataclass(frozen=True)
class Call(Node):
    fn: str  # 'abs' | 'sgn'
    arg: Node


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # '+', '-', '*', '/', '^'
    lhs: Node
    rhs: Node


@dataclass(frozen=True)
class SymbolExpr:
    """Parsed symbol: an expression tree plus its source text."""

    root: Node
    text: str


# ---------------------------------------------------------------------------
# Tokenizer / parser

_FUNCS = ("abs", "sgn")


# digits and dots, then an exponent only where digits follow the 'e'
_NUMBER = re.compile(r"[\d.]+(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_]\w*")


def _tokenize(text: str):
    tokens = []  # (kind, value, offset)
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch in "+-*/^(),":
            tokens.append((ch, ch, pos))
            pos += 1
        elif number := _NUMBER.match(text, pos):
            lit = number.group()
            try:
                value = float(lit)
            except ValueError:
                raise SymbolSyntaxError(f"bad numeric literal {lit!r}", pos)
            if not np.isfinite(value):
                raise SymbolSyntaxError(f"non-finite literal {lit!r}", pos)
            tokens.append(("num", value, pos))
            pos = number.end()
        elif name := _NAME.match(text, pos):
            tokens.append(("name", name.group(), pos))
            pos = name.end()
        else:
            raise SymbolSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise SymbolSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise SymbolSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, offset = self.advance()
            node = _fold(BinOp(op, node, self.term()), offset)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.advance()
            node = _fold(BinOp(op, node, self.unary()), offset)
        return node

    def unary(self) -> Node:
        kind, _, offset = self.peek()
        if kind in ("+", "-"):
            self.advance()
            arg = self.unary()
            return arg if kind == "+" else _fold(Neg(arg), offset)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek()[0] == "^":
            caret = self.advance()
            exponent = self.unary()  # right-associative, allows k^-2
            _check_power(base, exponent, caret[2])
            return _fold(BinOp("^", base, exponent), caret[2])
        return base

    def atom(self) -> Node:
        kind, value, offset = self.advance()
        if kind == "num":
            return Const(complex(value))
        if kind == "name":
            if value == "k":
                return Wavenumber()
            if value == "i":
                return Const(1j)
            if value in _FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return _fold(Call(value, arg), offset)
            raise SymbolSyntaxError(f"unknown identifier {value!r}", offset)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise SymbolSyntaxError(f"expected operand, found {value or kind!r}", offset)


# ---------------------------------------------------------------------------
# Constant folding and the static analysis used by the '^' rule


def _fold(node: Node, offset: int) -> Node:
    """One Const holding the value of `node` if it is k-free, else `node`.

    The parser folds each node as it builds it, so a node is k-free exactly
    when its operands are Consts.  An evaluation error (sgn of a non-real
    constant) is reported at `offset`, the offset of the node's token.
    """
    operands = (node.arg,) if isinstance(node, (Neg, Call)) else (node.lhs, node.rhs)
    if not all(isinstance(x, Const) for x in operands):
        return node
    try:
        return Const(complex(_evaluate(node, np.zeros(1))[0]), node)
    except SymbolEvalError as exc:
        raise SymbolSyntaxError(str(exc), offset) from None


def _provably_real(node: Node) -> bool:
    if isinstance(node, Const):
        v = node.value
        if np.isfinite(v) and v.imag == 0.0:
            return True
        return node.source is not None and _provably_real(node.source)
    if isinstance(node, (Wavenumber, Call)):
        return True  # k and abs are real; sgn demands a real argument
    if isinstance(node, Neg):
        return _provably_real(node.arg)
    if isinstance(node, BinOp):
        if node.op == "^":
            if node.rhs.value.real.is_integer():
                return _provably_real(node.lhs)
            return _provably_nonneg(node.lhs)
        return _provably_real(node.lhs) and _provably_real(node.rhs)
    raise TypeError(node)


def _provably_nonneg(node: Node) -> bool:
    if isinstance(node, Const):
        v = node.value
        if np.isfinite(v) and v.imag == 0.0 and v.real >= 0.0:
            return True
        return node.source is not None and _provably_nonneg(node.source)
    if isinstance(node, Call):
        return node.fn == "abs"
    if isinstance(node, BinOp):
        if node.op == "^":
            even = node.rhs.value.real % 2 == 0
            return _provably_nonneg(node.lhs) or (even and _provably_real(node.lhs))
        if node.op in ("+", "*", "/"):
            return _provably_nonneg(node.lhs) and _provably_nonneg(node.rhs)
    return False


def _check_power(base: Node, exponent: Node, offset: int):
    if not isinstance(exponent, Const):
        raise SymbolSyntaxError("exponent must not depend on k", offset)
    e = exponent.value
    if not np.isfinite(e):
        raise SymbolSyntaxError("exponent is not a finite constant", offset)
    if e.imag != 0.0:
        raise SymbolSyntaxError("exponent must be real", offset)
    if not e.real.is_integer() and not _provably_nonneg(base):
        raise SymbolSyntaxError(
            "non-integer exponent on sign-changing base", offset
        )


# ---------------------------------------------------------------------------
# Evaluation


def _divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b, divided as reals where b is real: numpy's complex quotient
    multiplies by 1/b, so 3/10 would not be 0.3 nor 49/49 be 1."""
    q = a / b
    real = b.imag == 0.0
    q.real[real] = a.real[real] / b.real[real]
    q.imag[real] = a.imag[real] / b.real[real]
    return q


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": _divide}


def _evaluate(node: Node, k: np.ndarray) -> np.ndarray:
    """Values of `node` at `k`; a non-finite value is judged by the caller."""
    with np.errstate(all="ignore"):
        return _eval_node(node, k)


def _eval_node(node: Node, k: np.ndarray) -> np.ndarray:
    if isinstance(node, Const):
        return np.full(k.shape, node.value, dtype=complex)
    if isinstance(node, Wavenumber):
        return k.astype(complex)
    if isinstance(node, Neg):
        return -_eval_node(node.arg, k)
    if isinstance(node, Call):
        v = _eval_node(node.arg, k)
        if node.fn == "abs":
            return np.abs(v).astype(complex)
        if np.max(np.abs(v.imag)) > 0.0:
            raise SymbolEvalError("sgn of a non-real argument")
        return np.sign(v.real).astype(complex)
    if isinstance(node, BinOp):
        a = _eval_node(node.lhs, k)
        if node.op == "^":
            e = node.rhs.value.real
            if not e.is_integer() or not np.any(a.imag):
                # a real power; a non-integer one has a >= 0 (parse-time check)
                return (a.real ** e).astype(complex)
            # repeated squaring: numpy's complex power uses exp/log from |e| = 100
            out = np.ones_like(a)
            for bit in bin(abs(int(e)))[:1:-1]:
                out, a = (out * a if bit == "1" else out), a * a
            return out if e >= 0 else 1.0 / out
        return _ARITHMETIC[node.op](a, _eval_node(node.rhs, k))
    raise TypeError(node)


def parse_symbol(text: str) -> SymbolExpr:
    """Parse a symbol expression string into a tree, k-free parts folded.

    Raises SymbolSyntaxError, with its offset, on the inputs the module
    docstring lists.
    """
    if not text or not text.strip():
        raise SymbolSyntaxError("empty expression", 0)
    if not text.isascii():
        raise SymbolSyntaxError("expression must be ASCII", 0)
    root = _Parser(text).parse()
    return SymbolExpr(root=root, text=text)


def eval_symbol(expr: SymbolExpr, wavenumbers) -> np.ndarray:
    """Evaluate l(k) pointwise on an array of angular wavenumbers.

    Negative powers are singular at k=0; the value there is taken to be 0
    when the two-sided limit symmetrization (l(+d)+l(-d))/2 vanishes,
    otherwise the symbol is rejected.
    """
    k = np.atleast_1d(np.asarray(wavenumbers, dtype=float))
    if not np.all(np.isfinite(k)):
        raise SymbolEvalError("wavenumbers must be finite")
    values = _evaluate(expr.root, k)

    bad = ~np.isfinite(values)
    if np.any(bad):
        if np.any(bad & (k != 0.0)):
            raise SymbolEvalError("symbol not finite at a nonzero wavenumber")
        values[bad] = _origin_value(expr)
    if np.isscalar(wavenumbers) or np.ndim(wavenumbers) == 0:
        return values[0]
    return values


def _origin_value(expr: SymbolExpr) -> complex:
    # symmetrized limit at k=0; only 0 is an accepted value
    for d in (1e-4, 1e-6, 1e-8):
        probe = _evaluate(expr.root, np.array([d, -d]))
        finite = np.all(np.isfinite(probe))
        scale = 1.0 + float(np.max(np.abs(probe)))
        if not finite or abs(0.5 * (probe[0] + probe[1])) > 1e-9 * scale:
            raise SymbolEvalError("singularity at k=0 without convention")
    return 0.0


def unparse(node: Node) -> str:
    """Render a tree back to (fully parenthesized) source text."""
    if isinstance(node, Const):
        v = node.value
        if v.imag == 0.0:
            return repr(v.real)
        if v == 1j:
            return "i"
        if v.real == 0.0:
            return f"({v.imag!r}*i)"
        return f"({v.real!r}+{v.imag!r}*i)"
    if isinstance(node, Wavenumber):
        return "k"
    if isinstance(node, Neg):
        return f"(-{unparse(node.arg)})"
    if isinstance(node, Call):
        return f"{node.fn}({unparse(node.arg)})"
    if isinstance(node, BinOp):
        return f"({unparse(node.lhs)}{node.op}{unparse(node.rhs)})"
    raise TypeError(node)


# ---------------------------------------------------------------------------
# Admissibility


@dataclass(frozen=True)
class AdmissibilityReport:
    """Sampled evidence that a symbol defines a usable operator.

    A usable l must vanish at the origin, be Hermitian (l(-k) = conj l(k),
    so the operator maps real fields to real fields) and have Re l <= 0
    (no amplification).
    """

    zero_at_origin: bool
    hermitian: bool
    dissipative: bool
    max_re: float

    @property
    def passed(self) -> bool:
        return self.zero_at_origin and self.hermitian and self.dissipative


def admissibility_samples(k_max: float = 256.0, n: int = 512) -> np.ndarray:
    """Symmetric sample set: 0, a near-origin refinement, and a dense sweep."""
    fine = np.geomspace(1e-8, 1.0, 64)
    coarse = np.linspace(1e-3, k_max, n)
    pos = np.unique(np.concatenate([fine, coarse]))
    return np.concatenate([[0.0], pos, -pos])


def validate_admissibility(expr: SymbolExpr, sample_wavenumbers) -> AdmissibilityReport:
    """Check l(0)=0, Hermitian symmetry and Re l <= 0 on a symmetric sample set."""
    ks = np.asarray(sample_wavenumbers, dtype=float)
    if 0.0 not in ks:
        raise ValueError("sample set must include k=0")
    pos = np.unique(np.abs(ks[ks != 0.0]))
    v0 = eval_symbol(expr, np.array([0.0]))[0]
    vp = eval_symbol(expr, pos)
    vm = eval_symbol(expr, -pos)

    zero_at_origin = bool(abs(v0) <= CHECK_TOL)
    herm_slack = np.abs(vm - np.conj(vp)) - CHECK_TOL * (1.0 + np.abs(vp))
    hermitian = bool(np.max(herm_slack) <= 0.0)
    everything = np.concatenate([[v0], vp, vm])
    re_slack = everything.real - CHECK_TOL * (1.0 + np.abs(everything))
    dissipative = bool(np.max(re_slack) <= 0.0)
    return AdmissibilityReport(
        zero_at_origin, hermitian, dissipative, float(np.max(everything.real))
    )


# ---------------------------------------------------------------------------
# Multiplier specs and presets


@dataclass(frozen=True)
class MultiplierSpec:
    """A validated symbol: expression, human label, and admissibility evidence."""

    expr: SymbolExpr
    label: str
    admissibility: AdmissibilityReport
    params: dict = field(default_factory=dict)

    @property
    def text(self) -> str:
        return self.expr.text

    def values(self, wavenumbers) -> np.ndarray:
        return eval_symbol(self.expr, wavenumbers)

    def require_admissible(self):
        if not self.admissibility.passed:
            raise SymbolError(f"operator {self.label!r} failed admissibility")

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values(np.array([0.0, 0.37, -2.1, 11.0])) == 0.0))


def _make_spec(text: str, label: str,
               params: dict | None = None) -> MultiplierSpec:
    expr = parse_symbol(text)
    report = validate_admissibility(expr, admissibility_samples())
    return MultiplierSpec(expr=expr, label=label,
                          admissibility=report, params=params or {})


def preset(name: str, nu: float | None = None,
           terms: list[tuple[float, float]] | None = None) -> MultiplierSpec:
    """Built-in operators.

    burgers          l = 0
    kdvb(nu)         l = nu*(i*k)^3
    bo               l = i*k*abs(k)
    hilbert          l = i*sgn(k)
    frac(terms)      l = -sum a_j*abs(k)^(2*alpha_j), a_j >= 0, 0 < alpha_j < 1
    """
    if name == "burgers":
        return _make_spec("0", "burgers")
    if name == "kdvb":
        if nu is None:
            raise ValueError("kdvb preset requires nu")
        return _make_spec(f"({nu!r})*(i*k)^3", f"kdvb(nu={nu:g})", {"nu": float(nu)})
    if name == "bo":
        return _make_spec("i*k*abs(k)", "bo")
    if name == "hilbert":
        return _make_spec("i*sgn(k)", "hilbert")
    if name == "frac":
        if not terms:
            raise ValueError("frac preset requires (a_j, alpha_j) terms")
        alphas = [a for (_, a) in terms]
        if any(a <= 0.0 or a >= 1.0 for a in alphas):
            raise ValueError("frac exponents must satisfy 0 < alpha < 1")
        if any(x >= y for x, y in zip(alphas, alphas[1:])):
            raise ValueError("frac exponents must be strictly increasing")
        if any(c < 0.0 for (c, _) in terms):
            raise ValueError("frac coefficients must be nonnegative")
        body = "+".join(f"({c!r})*abs(k)^({(2 * a)!r})" for (c, a) in terms)
        label = "frac(" + ",".join(f"{c:g}:{a:g}" for (c, a) in terms) + ")"
        return _make_spec(f"-({body})", label, {"terms": [tuple(t) for t in terms]})
    raise ValueError(f"unknown preset {name!r}")


def _substitute_scaled(node: Node, lam: float) -> Node:
    if isinstance(node, Wavenumber):
        return BinOp("*", Const(complex(lam)), Wavenumber())
    if isinstance(node, Const):
        return node
    if isinstance(node, Neg):
        return Neg(_substitute_scaled(node.arg, lam))
    if isinstance(node, Call):
        return Call(node.fn, _substitute_scaled(node.arg, lam))
    if isinstance(node, BinOp):
        return BinOp(node.op, _substitute_scaled(node.lhs, lam),
                     _substitute_scaled(node.rhs, lam))
    raise TypeError(node)


def rescale_symbol(spec: MultiplierSpec, lam: float) -> MultiplierSpec:
    """Length rescale: l -> l1 with l1(k) = lam^-2 * l(lam*k)."""
    if not lam > 0.0:
        raise ValueError("scale factor must be positive")
    root = BinOp("*", Const(complex(lam ** -2.0)),
                 _substitute_scaled(spec.expr.root, lam))
    expr = SymbolExpr(root=root, text=unparse(root))
    report = validate_admissibility(expr, admissibility_samples())
    params = dict(spec.params)
    if "nu" in params:
        params["nu"] = params["nu"] * lam
    if "terms" in params:
        params["terms"] = [
            (c * lam ** (2.0 * a - 2.0), a) for (c, a) in params["terms"]
        ]
    params["rescaled_from"] = spec.label
    params["scale"] = float(lam)
    label = spec.label if lam == 1.0 else f"rescale({spec.label},{lam:g})"
    return MultiplierSpec(expr=expr, label=label, admissibility=report, params=params)


def spec_from_text(text: str, label: str | None = None) -> MultiplierSpec:
    """Parse + validate a user-supplied symbol string."""
    return _make_spec(text, label or text)
