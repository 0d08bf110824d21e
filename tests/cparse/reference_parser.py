"""Per-level recursive-descent reference parser, kept only as a test oracle.

This is the original parser that ``repro.cparse.parser`` replaced with
precedence climbing and a bound-free cursor.  It recurses once per binary
precedence level and bounds-checks every peek, so it is slow but easy to
audit; the differential tests check the production parser against it: the
same AST ``repr``, or a ``ParseError`` with the same message.

It differs from the original in two literal cases only, where the original
raised ``ValueError``:

* an integer literal with a leading zero is C octal (``010`` is 8), and an
  ``8``/``9`` digit in it raises ``ParseError``;
* a floating literal with a ``u``/``U`` suffix (``1.5u``) raises
  ``ParseError``.

It has no nesting cap, so inputs nested deeper than the production cap
(``MAX_NESTING``) must not be compared.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cparse import ast
from repro.cparse.lexer import Token, TokenKind, tokenize
from repro.cparse.parser import ParseError
from repro.cparse.pragma import is_standalone_directive, parse_pragma

#: Known typedef-like type names that may start a declaration.
TYPEDEF_NAMES = frozenset(
    {
        "omp_lock_t",
        "omp_nest_lock_t",
        "size_t",
        "int8_t",
        "int16_t",
        "int32_t",
        "int64_t",
        "uint8_t",
        "uint16_t",
        "uint32_t",
        "uint64_t",
        "bool",
    }
)

#: Binary operator precedence levels, lowest first.
_BINARY_LEVELS: Tuple[Tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")


class ReferenceParser:
    """Token-stream parser producing a :class:`~repro.cparse.ast.TranslationUnit`."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- cursor helpers -----------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return tok

    def _check_punct(self, text: str) -> bool:
        return self._peek().is_punct(text)

    def _accept_punct(self, text: str) -> bool:
        if self._check_punct(text):
            self._advance()
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        if not self._check_punct(text):
            raise ParseError(f"expected {text!r}", self._peek())
        return self._advance()

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError("expected identifier", tok)
        return self._advance()

    def _loc(self, tok: Token) -> ast.SourceLoc:
        return ast.SourceLoc(tok.line, tok.col)

    # -- type detection -----------------------------------------------------------

    def _at_type(self) -> bool:
        """Return True when the current token starts a declaration."""
        tok = self._peek()
        if tok.kind is TokenKind.KEYWORD and tok.text in (
            "int",
            "long",
            "float",
            "double",
            "char",
            "void",
            "unsigned",
            "signed",
            "short",
            "const",
            "static",
            "struct",
        ):
            return True
        if tok.kind is TokenKind.IDENT and tok.text in TYPEDEF_NAMES:
            return True
        return False

    def _parse_type_name(self) -> Tuple[str, Tuple[str, ...]]:
        """Consume type specifier tokens and return (type_name, qualifiers)."""
        qualifiers: List[str] = []
        parts: List[str] = []
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.KEYWORD and tok.text in ("const", "static"):
                qualifiers.append(self._advance().text)
                continue
            if tok.kind is TokenKind.KEYWORD and tok.text in (
                "unsigned",
                "signed",
                "short",
                "long",
                "int",
                "float",
                "double",
                "char",
                "void",
            ):
                parts.append(self._advance().text)
                # "long long", "unsigned int" etc. keep looping
                continue
            if tok.kind is TokenKind.KEYWORD and tok.text == "struct":
                self._advance()
                name = self._expect_ident().text
                parts.append(f"struct {name}")
                break
            if not parts and tok.kind is TokenKind.IDENT and tok.text in TYPEDEF_NAMES:
                parts.append(self._advance().text)
                break
            break
        if not parts:
            raise ParseError("expected type name", self._peek())
        return " ".join(parts), tuple(qualifiers)

    # -- top level ----------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        first = self._peek()
        unit = ast.TranslationUnit(loc=self._loc(first))
        while self._peek().kind is not TokenKind.EOF:
            tok = self._peek()
            if tok.kind is TokenKind.INCLUDE:
                self._advance()
                header = tok.text[len("include") :].strip()
                unit.includes.append(
                    ast.IncludeDirective(loc=self._loc(tok), header=header)
                )
                continue
            if tok.kind is TokenKind.PRAGMA:
                # File-scope pragmas (e.g. ``omp threadprivate(x)``) become
                # global OmpStmt-free declarations; we skip them here but the
                # analyses can still see them via the raw source if needed.
                self._advance()
                continue
            if self._at_type():
                item = self._parse_declaration_or_function()
                if isinstance(item, ast.FunctionDef):
                    unit.functions.append(item)
                else:
                    unit.globals.append(item)
                continue
            raise ParseError("unexpected token at file scope", tok)
        return unit

    def _parse_declaration_or_function(self):
        start = self._peek()
        type_name, qualifiers = self._parse_type_name()
        pointer_depth = 0
        while self._accept_punct("*"):
            pointer_depth += 1
        name_tok = self._expect_ident()
        if self._check_punct("("):
            return self._parse_function_rest(start, type_name, name_tok)
        return self._parse_declaration_rest(
            start, type_name, qualifiers, pointer_depth, name_tok
        )

    def _parse_function_rest(
        self, start: Token, return_type: str, name_tok: Token
    ) -> ast.FunctionDef:
        self._expect_punct("(")
        params: List[ast.Parameter] = []
        if not self._check_punct(")"):
            while True:
                ptok = self._peek()
                if ptok.is_keyword("void") and self._peek(1).is_punct(")"):
                    self._advance()
                    break
                ptype, _ = self._parse_type_name()
                pdepth = 0
                while self._accept_punct("*"):
                    pdepth += 1
                pname = self._expect_ident().text
                is_array = False
                while self._accept_punct("["):
                    is_array = True
                    if not self._check_punct("]"):
                        self._parse_expression()
                    self._expect_punct("]")
                params.append(
                    ast.Parameter(
                        loc=self._loc(ptok),
                        type_name=ptype,
                        name=pname,
                        pointer_depth=pdepth,
                        is_array=is_array,
                    )
                )
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        body = self._parse_compound()
        return ast.FunctionDef(
            loc=self._loc(start),
            return_type=return_type,
            name=name_tok.text,
            params=params,
            body=body,
        )

    def _parse_declarator(
        self, pointer_depth: int, name_tok: Token
    ) -> ast.Declarator:
        dims: List[Optional[ast.Expr]] = []
        while self._accept_punct("["):
            if self._check_punct("]"):
                dims.append(None)
            else:
                dims.append(self._parse_expression())
            self._expect_punct("]")
        init: Optional[ast.Expr] = None
        if self._accept_punct("="):
            init = self._parse_initializer()
        return ast.Declarator(
            loc=self._loc(name_tok),
            name=name_tok.text,
            pointer_depth=pointer_depth,
            array_dims=dims,
            init=init,
        )

    def _parse_initializer(self) -> ast.Expr:
        if self._check_punct("{"):
            # Brace initializer: represent as a Call node named "__init_list__"
            start = self._expect_punct("{")
            elements: List[ast.Expr] = []
            if not self._check_punct("}"):
                while True:
                    elements.append(self._parse_assignment_expr())
                    if not self._accept_punct(","):
                        break
            self._expect_punct("}")
            return ast.Call(loc=self._loc(start), name="__init_list__", args=elements)
        return self._parse_assignment_expr()

    def _parse_declaration_rest(
        self,
        start: Token,
        type_name: str,
        qualifiers: Tuple[str, ...],
        pointer_depth: int,
        name_tok: Token,
    ) -> ast.Declaration:
        declarators = [self._parse_declarator(pointer_depth, name_tok)]
        while self._accept_punct(","):
            depth = 0
            while self._accept_punct("*"):
                depth += 1
            next_name = self._expect_ident()
            declarators.append(self._parse_declarator(depth, next_name))
        self._expect_punct(";")
        return ast.Declaration(
            loc=self._loc(start),
            type_name=type_name,
            declarators=declarators,
            qualifiers=qualifiers,
        )

    # -- statements ---------------------------------------------------------------

    def _parse_compound(self) -> ast.CompoundStmt:
        start = self._expect_punct("{")
        stmts: List[ast.Stmt] = []
        while not self._check_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError("unterminated compound statement", self._peek())
            stmts.append(self._parse_statement())
        self._expect_punct("}")
        return ast.CompoundStmt(loc=self._loc(start), body=stmts)

    def _parse_statement(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind is TokenKind.PRAGMA:
            return self._parse_omp_statement()
        if tok.is_punct("{"):
            return self._parse_compound()
        if tok.is_punct(";"):
            self._advance()
            return ast.NullStmt(loc=self._loc(tok))
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("return"):
            self._advance()
            value = None
            if not self._check_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return ast.ReturnStmt(loc=self._loc(tok), value=value)
        if tok.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return ast.BreakStmt(loc=self._loc(tok))
        if tok.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return ast.ContinueStmt(loc=self._loc(tok))
        if self._at_type():
            type_name, qualifiers = self._parse_type_name()
            depth = 0
            while self._accept_punct("*"):
                depth += 1
            name_tok = self._expect_ident()
            return self._parse_declaration_rest(tok, type_name, qualifiers, depth, name_tok)
        expr = self._parse_expression()
        self._expect_punct(";")
        return ast.ExprStmt(loc=self._loc(tok), expr=expr)

    def _parse_omp_statement(self) -> ast.OmpStmt:
        tok = self._advance()
        pragma = parse_pragma(tok.text, tok.line, tok.col)
        if is_standalone_directive(pragma):
            return ast.OmpStmt(loc=self._loc(tok), pragma=pragma, body=None)
        body = self._parse_statement()
        return ast.OmpStmt(loc=self._loc(tok), pragma=pragma, body=body)

    def _parse_for(self) -> ast.ForStmt:
        tok = self._advance()
        self._expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not self._check_punct(";"):
            if self._at_type():
                type_name, qualifiers = self._parse_type_name()
                depth = 0
                while self._accept_punct("*"):
                    depth += 1
                name_tok = self._expect_ident()
                declarators = [self._parse_declarator(depth, name_tok)]
                while self._accept_punct(","):
                    d2 = 0
                    while self._accept_punct("*"):
                        d2 += 1
                    declarators.append(self._parse_declarator(d2, self._expect_ident()))
                init = ast.Declaration(
                    loc=self._loc(tok),
                    type_name=type_name,
                    declarators=declarators,
                    qualifiers=qualifiers,
                )
                self._expect_punct(";")
            else:
                expr = self._parse_expression()
                init = ast.ExprStmt(loc=self._loc(tok), expr=expr)
                self._expect_punct(";")
        else:
            self._expect_punct(";")
        cond: Optional[ast.Expr] = None
        if not self._check_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step: Optional[ast.Expr] = None
        if not self._check_punct(")"):
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.ForStmt(loc=self._loc(tok), init=init, cond=cond, step=step, body=body)

    def _parse_while(self) -> ast.WhileStmt:
        tok = self._advance()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.WhileStmt(loc=self._loc(tok), cond=cond, body=body)

    def _parse_if(self) -> ast.IfStmt:
        tok = self._advance()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        other: Optional[ast.Stmt] = None
        if self._peek().is_keyword("else"):
            self._advance()
            other = self._parse_statement()
        return ast.IfStmt(loc=self._loc(tok), cond=cond, then=then, other=other)

    # -- expressions --------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        expr = self._parse_assignment_expr()
        # The comma operator appears only in for-steps like ``i++, j++``.
        while self._check_punct(",") and self._comma_is_operator():
            op_tok = self._advance()
            right = self._parse_assignment_expr()
            expr = ast.BinaryOp(loc=self._loc(op_tok), op=",", left=expr, right=right)
        return expr

    def _comma_is_operator(self) -> bool:
        """Inside argument lists the caller handles commas; only for-steps use
        the comma operator.  We use a conservative heuristic: treat the comma
        as an operator only when the next token can begin an expression and we
        are not inside a call (the call parser never calls _parse_expression)."""
        nxt = self._peek(1)
        return nxt.kind in (
            TokenKind.IDENT,
            TokenKind.INT_LIT,
            TokenKind.FLOAT_LIT,
        ) or nxt.is_punct("(")

    def _parse_assignment_expr(self) -> ast.Expr:
        left = self._parse_conditional()
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in _ASSIGN_OPS:
            self._advance()
            value = self._parse_assignment_expr()
            return ast.Assignment(loc=self._loc(tok), op=tok.text, target=left, value=value)
        return left

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._check_punct("?"):
            tok = self._advance()
            then = self._parse_assignment_expr()
            self._expect_punct(":")
            other = self._parse_conditional()
            return ast.ConditionalExpr(loc=self._loc(tok), cond=cond, then=then, other=other)
        return cond

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        left = self._parse_binary(level + 1)
        ops = _BINARY_LEVELS[level]
        while self._peek().kind is TokenKind.PUNCT and self._peek().text in ops:
            tok = self._advance()
            right = self._parse_binary(level + 1)
            left = ast.BinaryOp(loc=self._loc(tok), op=tok.text, left=left, right=right)
        return left

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in ("+", "-", "!", "~"):
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(loc=self._loc(tok), op=tok.text, operand=operand)
        if tok.is_punct("&"):
            self._advance()
            operand = self._parse_unary()
            return ast.AddressOf(loc=self._loc(tok), operand=operand)
        if tok.is_punct("*"):
            self._advance()
            operand = self._parse_unary()
            return ast.Deref(loc=self._loc(tok), operand=operand)
        if tok.kind is TokenKind.PUNCT and tok.text in ("++", "--"):
            self._advance()
            operand = self._parse_unary()
            return ast.IncDec(loc=self._loc(tok), op=tok.text, operand=operand, prefix=True)
        if tok.is_keyword("sizeof"):
            self._advance()
            self._expect_punct("(")
            # sizeof(type) or sizeof(expr): either way we record a call node.
            if self._at_type():
                type_name, _ = self._parse_type_name()
                while self._accept_punct("*"):
                    type_name += "*"
                arg: ast.Expr = ast.StringLiteral(loc=self._loc(tok), value=type_name)
            else:
                arg = self._parse_expression()
            self._expect_punct(")")
            return ast.Call(loc=self._loc(tok), name="sizeof", args=[arg])
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_punct("["):
                self._advance()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = ast.ArraySubscript(loc=expr.loc, base=expr, index=index)
                continue
            if tok.is_punct("(") and isinstance(expr, ast.Identifier):
                self._advance()
                args: List[ast.Expr] = []
                if not self._check_punct(")"):
                    while True:
                        args.append(self._parse_assignment_expr())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                expr = ast.Call(loc=expr.loc, name=expr.name, args=args)
                continue
            if tok.kind is TokenKind.PUNCT and tok.text in ("++", "--"):
                self._advance()
                expr = ast.IncDec(loc=expr.loc, op=tok.text, operand=expr, prefix=False)
                continue
            if tok.is_punct(".") or tok.is_punct("->"):
                # Member access: model as identifier with a composite name so
                # the analyses can still track it as a named location.
                self._advance()
                member = self._expect_ident()
                base_name = expr.name if isinstance(expr, ast.Identifier) else "<expr>"
                sep = "." if tok.text == "." else "->"
                expr = ast.Identifier(loc=expr.loc, name=f"{base_name}{sep}{member.text}")
                continue
            break
        return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT_LIT:
            self._advance()
            digits = tok.text.rstrip("uUlL")
            if len(digits) > 1 and digits[0] == "0":
                if "8" in digits or "9" in digits:
                    raise ParseError("invalid digit in octal literal", tok)
                value = int(digits, 8)
            else:
                value = int(digits)
            return ast.IntLiteral(loc=self._loc(tok), value=value, text=tok.text)
        if tok.kind is TokenKind.FLOAT_LIT:
            self._advance()
            try:
                value = float(tok.text.rstrip("fFlL"))
            except ValueError:
                raise ParseError("invalid suffix on floating literal", tok) from None
            return ast.FloatLiteral(loc=self._loc(tok), value=value, text=tok.text)
        if tok.kind is TokenKind.STRING_LIT or tok.kind is TokenKind.CHAR_LIT:
            self._advance()
            return ast.StringLiteral(loc=self._loc(tok), value=tok.text)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            return ast.Identifier(loc=self._loc(tok), name=tok.text)
        if tok.is_punct("("):
            self._advance()
            # Cast expression like (double)x — detect a type inside parens.
            if self._at_type():
                save = self.pos
                try:
                    self._parse_type_name()
                    while self._accept_punct("*"):
                        pass
                    if self._accept_punct(")"):
                        operand = self._parse_unary()
                        return operand  # casts are transparent to the analyses
                except ParseError:
                    pass
                self.pos = save
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError("expected expression", tok)


def reference_parse(source: str) -> ast.TranslationUnit:
    """Parse C source text with the reference parser."""
    return ReferenceParser(tokenize(source, keep_comments=False)).parse_translation_unit()
