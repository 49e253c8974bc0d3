"""Concrete syntax for the quantum lambda calculus.

Grammar sketch (sugar is expanded during parsing):

    term  ::= 'lam' binder '.' term
            | 'let' binder '=' term 'in' term
            | 'letrec' ('^' NAT)? ID '(' ID ':' type ')' ':' type '=' term 'in' term
            | 'match' term 'with' '(' ID ':' type '->' term '|' ID ':' type '->' term ')'
            | 'if' term 'then' term 'else' term
            | app (':' type)? (';' term)?
    binder ::= '(' ')' | '<' ID ':' type ',' ID ':' type '>' | ID ':' type
    app   ::= atom+
    atom  ::= ID | '()' | 'tt' | 'ff' | 'nil' | 'meas' | 'new'
            | 'split' '[' type ']' | 'omega' '[' type ']'
            | 'inl' ('[' type ']')? atom | 'inr' ('[' type ']')? atom
            | 'cons' atom atom | '#' ID | '#' 'U' '[' row (',' row)* ']'
            | '<' term ',' term '>' | '(' term ')'
    row   ::= '[' COMPLEX (',' COMPLEX)* ']'
    type  ::= sum ('-o' type)?
    sum   ::= prod ('+' prod)*
    prod  ::= tatom ('*' tatom)*
    tatom ::= 'qubit' | 'unit' | 'bit' | 'list' '[' type ']' | '(' type ')'
            | '!' '(' sum '-o' type ')'

``bit`` abbreviates ``unit + unit`` with truth on the right injection.
Application is left associative; ``-o`` is right associative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import syntax as S


class QlamSyntaxError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


_KEYWORDS = {
    "lam", "let", "letrec", "in", "match", "with", "if", "then", "else",
    "inl", "inr", "cons", "tt", "ff", "nil", "meas", "new", "split",
    "omega", "qubit", "unit", "bit", "list",
}

_BASE_TYPES = {"qubit": S.QUBIT, "unit": S.UNIT, "bit": S.BIT}
# keyword atoms that stand for a fixed term
_CONSTANTS = {"tt": S.tt, "ff": S.ff, "nil": S.nil, "meas": S.Meas, "new": S.New}
# keyword atoms that take a bracketed type, and those that may take one
_TYPED = {"split": S.Split, "omega": S.Omega}
_INJECTIONS = {"inl": S.InL, "inr": S.InR}
# every keyword that starts an atom
_ATOM_KEYWORDS = set(_CONSTANTS) | set(_TYPED) | set(_INJECTIONS) | {"cons"}
# the lam and let forms of each binder, by its length: (), (x, A), (x, A, y, B)
_LAMS = {0: S.lam_unit, 2: S.Abs, 4: S.lam_pair}
_LETS = {0: S.LetUnit, 2: S.let_term, 4: S.LetPair}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<num>\d+(\.\d+)?([eE][+-]?\d+)?)
    | (?P<id>[A-Za-z_][A-Za-z0-9_'#]*)
    | (?P<op>-o|->|\^|[()<>,.:;=|\[\]!*+\#-])
    """,
    re.VERBOSE,
)


@dataclass
class Tok:
    kind: str  # 'id', 'kw', 'num', or the operator text itself
    text: str
    line: int
    col: int


def _tokenize(src: str):
    toks = []
    pos, line, bol = 0, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise QlamSyntaxError(f"unexpected character {src[pos]!r}", line, pos - bol + 1)
        text = m.group(0)
        col = pos - bol + 1
        if m.lastgroup == "ws":
            nl = text.count("\n")
            if nl:
                line += nl
                bol = pos + text.rfind("\n") + 1
        elif m.lastgroup == "num":
            toks.append(Tok("num", text, line, col))
        elif m.lastgroup == "id":
            kind = "kw" if text in _KEYWORDS else "id"
            toks.append(Tok(kind, text, line, col))
        else:
            toks.append(Tok(text, text, line, col))
        pos = m.end()
    toks.append(Tok("eof", "", line, len(src) - bol + 1))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    def parse(self, rule):
        """Run the method ``rule`` over the whole input."""
        result = rule(self)
        if not self._at("eof"):
            self._err(f"trailing input starting at {self.cur.text!r}")
        return result

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> Tok:
        return self.toks[self.i]

    def _advance(self) -> Tok:
        t = self.cur
        self.i += 1
        return t

    def _err(self, msg: str):
        t = self.cur
        raise QlamSyntaxError(msg, t.line, t.col)

    def _eat(self, kind: str, text: str | None = None) -> Tok:
        t = self.cur
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            self._err(f"expected {want!r}, found {t.text!r}")
        return self._advance()

    def _at(self, kind: str, text: str | None = None) -> bool:
        t = self.cur
        return t.kind == kind and (text is None or t.text == text)

    def _accept(self, kind: str, text: str | None = None) -> bool:
        """Consume the current token if it matches."""
        if self._at(kind, text):
            self.i += 1
            return True
        return False

    def _bracketed(self, item) -> list:
        """``'[' item (',' item)* ']'``."""
        self._eat("[")
        items = [item()]
        while self._accept(","):
            items.append(item())
        self._eat("]")
        return items

    # -- types -------------------------------------------------------------

    def type_(self) -> S.Type:
        left = self._type_sum()
        if self._accept("-o"):
            return S.LinArrow(left, self.type_())
        return left

    def _type_sum(self) -> S.Type:
        t = self._type_prod()
        while self._accept("+"):
            t = S.SumT(t, self._type_prod())
        return t

    def _type_prod(self) -> S.Type:
        t = self._type_atom()
        while self._accept("*"):
            t = S.TensorT(t, self._type_atom())
        return t

    def _type_atom(self) -> S.Type:
        t = self._advance()
        if t.kind == "kw" and t.text in _BASE_TYPES:
            return _BASE_TYPES[t.text]
        if t.kind == "kw" and t.text == "list":
            return S.ListT(self._bracket_type())
        if t.kind == "(":
            inner = self.type_()
            self._eat(")")
            return inner
        if t.kind == "!":
            self._eat("(")
            arg = self._type_sum()
            self._eat("-o")
            res = self.type_()
            self._eat(")")
            return S.BangArrow(arg, res)
        raise QlamSyntaxError(f"expected a type, found {t.text!r}", t.line, t.col)

    def _bracket_type(self) -> S.Type:
        self._eat("[")
        t = self.type_()
        self._eat("]")
        return t

    # -- terms ---------------------------------------------------------------

    def term(self) -> S.Term:
        t = self.cur
        if t.kind == "kw" and t.text in _FORMS:
            self._advance()
            return _FORMS[t.text](self)
        m = self._atom()
        while self._starts_atom():
            m = S.App(m, self._atom())
        if self._accept(":"):
            m = S.Ascribe(m, self.type_())
        if self._accept(";"):
            return S.seq(m, self.term())
        return m

    def _starts_atom(self) -> bool:
        t = self.cur
        return t.kind in ("id", "(", "<", "#") or (t.kind == "kw" and t.text in _ATOM_KEYWORDS)

    def _atom(self) -> S.Term:
        t = self._advance()
        if t.kind == "id":
            return S.Var(t.text)
        if t.kind == "(":
            if self._accept(")"):
                return S.UnitVal()
            m = self.term()
            self._eat(")")
            return m
        if t.kind == "<":
            left = self.term()
            self._eat(",")
            right = self.term()
            self._eat(">")
            return S.Pair(left, right)
        if t.kind == "#":
            return self._gate(t)
        if t.kind == "kw" and t.text in _CONSTANTS:
            return _CONSTANTS[t.text]()
        if t.kind == "kw" and t.text in _TYPED:
            return _TYPED[t.text](self._bracket_type())
        if t.kind == "kw" and t.text in _INJECTIONS:
            ann = self._bracket_type() if self._at("[") else None
            return _INJECTIONS[t.text](self._atom(), ann)
        if t.kind == "kw" and t.text == "cons":
            return S.cons(self._atom(), self._atom())
        raise QlamSyntaxError(f"expected a term, found {t.text!r}", t.line, t.col)

    def _gate(self, tok: Tok) -> S.Term:
        name = self._eat("id").text
        if name == "U":
            rows = self._bracketed(lambda: self._bracketed(self._complex))
            try:
                return S.gate("U", rows)
            except ValueError as e:
                raise QlamSyntaxError(str(e), tok.line, tok.col) from None
        if name not in S.STANDARD_GATES:
            raise QlamSyntaxError(f"unknown gate #{name}", tok.line, tok.col)
        return S.STANDARD_GATES[name]

    def _complex(self) -> complex:
        # [+-]? num ('i')? ([+-] num 'i')?
        val, _ = self._number(-1.0 if self._accept("-") else 1.0)
        if self._at("+") or self._at("-"):
            part, imag = self._number(-1.0 if self._advance().text == "-" else 1.0)
            if not imag:
                self._err("expected imaginary part after sign")
            val += part
        return val

    def _number(self, sign: float):
        """``num ('i')?`` times ``sign``, and whether it was imaginary."""
        mag = float(self._eat("num").text)
        imag = self._accept("id", "i")
        return sign * (mag * 1j if imag else mag), imag

    def _binder_var(self):
        name = self._eat("id").text
        self._eat(":")
        return name, self.type_()

    def _binder(self) -> tuple:
        """``()``, ``<x:A, y:B>`` or ``x:A``, as ``()``, ``(x, A, y, B)`` or ``(x, A)``."""
        if self._accept("("):
            self._eat(")")
            return ()
        if self._accept("<"):
            x, tx = self._binder_var()
            self._eat(",")
            y, ty = self._binder_var()
            self._eat(">")
            return x, tx, y, ty
        return self._binder_var()

    def _lam(self) -> S.Term:
        binder = self._binder()
        self._eat(".")
        return _LAMS[len(binder)](*binder, self.term())

    def _let(self) -> S.Term:
        binder = self._binder()
        self._eat("=")
        subject = self.term()
        self._eat("kw", "in")
        return _LETS[len(binder)](*binder, subject, self.term())

    def _letrec(self) -> S.Term:
        bound = None
        if self._accept("^"):
            t = self._eat("num")
            if "." in t.text or "e" in t.text.lower():
                raise QlamSyntaxError("letrec bound must be a natural number", t.line, t.col)
            bound = int(t.text)
        f = self._eat("id").text
        self._eat("(")
        x, ta = self._binder_var()
        self._eat(")")
        self._eat(":")
        tb = self.type_()
        self._eat("=")
        body = self.term()
        self._eat("kw", "in")
        return S.LetRec(f, ta, tb, x, body, self.term(), bound)

    def _match(self) -> S.Term:
        subject = self.term()
        self._eat("kw", "with")
        self._eat("(")
        x, tx = self._binder_var()
        self._eat("->")
        lbody = self.term()
        self._eat("|")
        y, ty = self._binder_var()
        self._eat("->")
        rbody = self.term()
        self._eat(")")
        return S.Match(subject, x, tx, lbody, y, ty, rbody)

    def _if(self) -> S.Term:
        cond = self.term()
        self._eat("kw", "then")
        then_branch = self.term()
        self._eat("kw", "else")
        return S.if_term(cond, then_branch, self.term())


# the keyword forms of ``term``, each parsed after its keyword
_FORMS = {"lam": _Parser._lam, "let": _Parser._let, "letrec": _Parser._letrec,
          "match": _Parser._match, "if": _Parser._if}


def parse_term(src: str) -> S.Term:
    return _Parser(src).parse(_Parser.term)


def parse_type(src: str) -> S.Type:
    return _Parser(src).parse(_Parser.type_)
