"""Concrete syntax for the quantum lambda calculus.

Grammar sketch (sugar is expanded during parsing):

    term  ::= 'lam' binder '.' term
            | 'let' pattern '=' term 'in' term
            | 'letrec' ('^' NAT)? ID '(' ID ':' type ')' ':' type '=' term 'in' term
            | 'match' term 'with' '(' ID ':' type '->' term '|' ID ':' type '->' term ')'
            | 'if' term 'then' term 'else' term
            | seq
    seq   ::= asc (';' term)?
    asc   ::= app (':' type)?
    app   ::= atom+
    atom  ::= ID | '()' | 'tt' | 'ff' | 'nil' | 'meas' | 'new'
            | 'split' '[' type ']' | 'omega' '[' type ']'
            | 'inl' ('[' type ']')? atom | 'inr' ('[' type ']')? atom
            | 'cons' atom atom | '#' GATE | '<' term ',' term '>' | '(' term ')'
    type  ::= sum ('-o' type)? | '!' '(' type '-o' type ')'
    sum   ::= prod ('+' prod)*
    prod  ::= tatom ('*' tatom)*
    tatom ::= 'qubit' | 'unit' | 'bit' | 'list' '[' type ']' | '(' type ')'

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

    def _at_kw(self, word: str) -> bool:
        return self._at("kw", word)

    # -- types -------------------------------------------------------------

    def type_(self) -> S.Type:
        if self._at("!"):
            self._advance()
            self._eat("(")
            arg = self._type_sum()
            self._eat("-o")
            res = self.type_()
            self._eat(")")
            return S.BangArrow(arg, res)
        left = self._type_sum()
        if self._at("-o"):
            self._advance()
            return S.LinArrow(left, self.type_())
        return left

    def _type_sum(self) -> S.Type:
        t = self._type_prod()
        while self._at("+"):
            self._advance()
            t = S.SumT(t, self._type_prod())
        return t

    def _type_prod(self) -> S.Type:
        t = self._type_atom()
        while self._at("*"):
            self._advance()
            t = S.TensorT(t, self._type_atom())
        return t

    def _type_atom(self) -> S.Type:
        if self._at_kw("qubit"):
            self._advance()
            return S.QUBIT
        if self._at_kw("unit"):
            self._advance()
            return S.UNIT
        if self._at_kw("bit"):
            self._advance()
            return S.BIT
        if self._at_kw("list"):
            self._advance()
            self._eat("[")
            t = self.type_()
            self._eat("]")
            return S.ListT(t)
        if self._at("("):
            self._advance()
            t = self.type_()
            self._eat(")")
            return t
        self._err(f"expected a type, found {self.cur.text!r}")

    # -- terms ---------------------------------------------------------------

    def term(self) -> S.Term:
        if self._at_kw("lam"):
            return self._lam()
        if self._at_kw("let"):
            return self._let()
        if self._at_kw("letrec"):
            return self._letrec()
        if self._at_kw("match"):
            return self._match()
        if self._at_kw("if"):
            return self._if()
        return self._seq()

    def _seq(self) -> S.Term:
        m = self._asc()
        if self._at(";"):
            self._advance()
            return S.seq(m, self.term())
        return m

    def _asc(self) -> S.Term:
        m = self._app()
        if self._at(":"):
            self._advance()
            return S.Ascribe(m, self.type_())
        return m

    def _app(self) -> S.Term:
        m = self._atom()
        while self._starts_atom():
            m = S.App(m, self._atom())
        return m

    def _starts_atom(self) -> bool:
        t = self.cur
        if t.kind in ("id", "(", "<", "#"):
            return True
        return t.kind == "kw" and t.text in (
            "tt", "ff", "nil", "meas", "new", "split", "omega", "inl", "inr", "cons",
        )

    def _atom(self) -> S.Term:
        t = self.cur
        if t.kind == "id":
            self._advance()
            return S.Var(t.text)
        if self._at("("):
            self._advance()
            if self._at(")"):
                self._advance()
                return S.UnitVal()
            m = self.term()
            self._eat(")")
            return m
        if self._at("<"):
            self._advance()
            left = self.term()
            self._eat(",")
            right = self.term()
            self._eat(">")
            return S.Pair(left, right)
        if self._at("#"):
            return self._gate()
        if t.kind == "kw":
            word = t.text
            if word == "tt":
                self._advance()
                return S.tt()
            if word == "ff":
                self._advance()
                return S.ff()
            if word == "nil":
                self._advance()
                return S.nil()
            if word == "meas":
                self._advance()
                return S.Meas()
            if word == "new":
                self._advance()
                return S.New()
            if word == "split":
                self._advance()
                self._eat("[")
                ty = self.type_()
                self._eat("]")
                return S.Split(ty)
            if word == "omega":
                self._advance()
                self._eat("[")
                ty = self.type_()
                self._eat("]")
                return S.Omega(ty)
            if word in ("inl", "inr"):
                self._advance()
                ann = None
                if self._at("["):
                    self._advance()
                    ann = self.type_()
                    self._eat("]")
                body = self._atom()
                return S.InL(body, ann) if word == "inl" else S.InR(body, ann)
            if word == "cons":
                self._advance()
                head = self._atom()
                tail = self._atom()
                return S.cons(head, tail)
        self._err(f"expected a term, found {t.text!r}")

    def _gate(self) -> S.Term:
        tok = self._eat("#")
        name = self._eat("id").text
        if name == "U":
            self._eat("[")
            rows = [self._gate_row()]
            while self._at(","):
                self._advance()
                rows.append(self._gate_row())
            self._eat("]")
            try:
                return S.gate("U", rows)
            except ValueError as e:
                raise QlamSyntaxError(str(e), tok.line, tok.col) from None
        if name not in S.STANDARD_GATES:
            raise QlamSyntaxError(f"unknown gate #{name}", tok.line, tok.col)
        return S.STANDARD_GATES[name]

    def _gate_row(self) -> list:
        self._eat("[")
        row = [self._complex()]
        while self._at(","):
            self._advance()
            row.append(self._complex())
        self._eat("]")
        return row

    def _complex(self) -> complex:
        # [+-]? num ('i')? ([+-] num 'i')?
        val = self._signed_part()
        if self._at("+") or self._at("-"):
            sign = -1.0 if self.cur.text == "-" else 1.0
            self._advance()
            part = self._num_part()
            if not part[1]:
                self._err("expected imaginary part after sign")
            val += sign * part[0] * 1j
        return val

    def _signed_part(self) -> complex:
        sign = 1.0
        if self._at("-"):
            sign = -1.0
            self._advance()
        mag, imag = self._num_part()
        return sign * (mag * 1j if imag else mag)

    def _num_part(self):
        t = self._eat("num")
        mag = float(t.text)
        imag = False
        if self._at("id", "i"):
            self._advance()
            imag = True
        return mag, imag

    def _binder_var(self):
        name = self._eat("id").text
        self._eat(":")
        return name, self.type_()

    def _lam(self) -> S.Term:
        self._eat("kw", "lam")
        if self._at("("):
            self._advance()
            self._eat(")")
            self._eat(".")
            return S.lam_unit(self.term())
        if self._at("<"):
            self._advance()
            x, tx = self._binder_var()
            self._eat(",")
            y, ty = self._binder_var()
            self._eat(">")
            self._eat(".")
            return S.lam_pair(x, tx, y, ty, self.term())
        x, tx = self._binder_var()
        self._eat(".")
        return S.Abs(x, tx, self.term())

    def _let(self) -> S.Term:
        self._eat("kw", "let")
        if self._at("("):
            self._advance()
            self._eat(")")
            self._eat("=")
            subject = self.term()
            self._eat("kw", "in")
            return S.LetUnit(subject, self.term())
        if self._at("<"):
            self._advance()
            x, tx = self._binder_var()
            self._eat(",")
            y, ty = self._binder_var()
            self._eat(">")
            self._eat("=")
            subject = self.term()
            self._eat("kw", "in")
            return S.LetPair(x, tx, y, ty, subject, self.term())
        x, tx = self._binder_var()
        self._eat("=")
        subject = self.term()
        self._eat("kw", "in")
        return S.let_term(x, tx, subject, self.term())

    def _letrec(self) -> S.Term:
        self._eat("kw", "letrec")
        bound = None
        if self._at("^"):
            self._advance()
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
        cont = self.term()
        return S.LetRec(f, ta, tb, x, body, cont, bound)

    def _match(self) -> S.Term:
        self._eat("kw", "match")
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
        self._eat("kw", "if")
        cond = self.term()
        self._eat("kw", "then")
        then_branch = self.term()
        self._eat("kw", "else")
        else_branch = self.term()
        return S.if_term(cond, then_branch, else_branch)


def parse_term(src: str) -> S.Term:
    p = _Parser(src)
    m = p.term()
    if not p._at("eof"):
        p._err(f"trailing input starting at {p.cur.text!r}")
    return m


def parse_type(src: str) -> S.Type:
    p = _Parser(src)
    t = p.type_()
    if not p._at("eof"):
        p._err(f"trailing input starting at {p.cur.text!r}")
    return t
