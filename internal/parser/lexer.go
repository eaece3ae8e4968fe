// Package parser implements the concrete syntax of the GCM rule language:
// Datalog rules with negation, built-ins and aggregation, extended with
// the F-logic frame syntax of the paper's Table 1 (instance `X : C`,
// subclass `C :: D`, method values `O[m -> V]`, method signatures
// `C[m => D]`), which it desugars into the core GCM predicates.
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokAtom
	tokVar
	tokInt
	tokFloat
	tokString
	tokPunct // one of the operator/punctuation lexemes below
)

// Punctuation lexemes produced with kind tokPunct.
const (
	pLParen   = "("
	pRParen   = ")"
	pLBracket = "["
	pRBracket = "]"
	pLBrace   = "{"
	pRBrace   = "}"
	pComma    = ","
	pSemi     = ";"
	pDot      = "."
	pIf       = ":-"
	pQuery    = "?-"
	pColon    = ":"
	pIsa      = "::"
	pArrow    = "->"
	pArrow2   = "->>"
	pSArrow   = "=>"
	pSArrow2  = "=>>"
	pEq       = "="
	pNeq      = "\\="
	pNeqAlt   = "!="
	pLt       = "<"
	pLe       = "=<"
	pLeAlt    = "<="
	pGt       = ">"
	pGe       = ">="
	pPlus     = "+"
	pMinus    = "-"
	pStar     = "*"
	pSlash    = "/"
	pSlash2   = "//"
)

type token struct {
	kind tokKind
	text string
	ival int64
	fval float64
	pos  int // byte offset, for error messages
	line int
}

type lexer struct {
	src    string
	pos    int
	line   int
	tokens []token
}

// lex tokenizes src completely, reporting the first lexical error.
func lex(src string) ([]token, error) {
	// A query or rule text runs two to five bytes a token: a token per
	// three bytes holds most without the slice growing.
	l := &lexer{src: src, line: 1, tokens: make([]token, 0, len(src)/3+4)}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(token{kind: tokEOF, pos: l.pos, line: l.line})
			return l.tokens, nil
		}
		if err := l.next(); err != nil {
			return nil, err
		}
	}
}

func (l *lexer) emit(t token) { l.tokens = append(l.tokens, t) }

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '%': // Prolog-style line comment
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				if l.src[l.pos] == '\n' {
					l.line++
				}
				l.pos++
			}
			l.pos += 2
			if l.pos > len(l.src) {
				l.pos = len(l.src)
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func (l *lexer) next() error {
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c >= '0' && c <= '9':
		return l.lexNumber()
	case c == '\'':
		return l.lexQuotedAtom()
	case c == '"':
		return l.lexString()
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		kind := tokAtom
		if c >= 'A' && c <= 'Z' || c == '_' {
			kind = tokVar
		}
		l.emit(token{kind: kind, text: text, pos: start, line: l.line})
		return nil
	default:
		return l.lexPunct()
	}
}

func (l *lexer) lexNumber() error {
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	isFloat := false
	// A dot is part of the number only if followed by a digit; otherwise
	// it terminates the rule.
	if l.pos+1 < len(l.src) && l.src[l.pos] == '.' && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
		isFloat = true
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			isFloat = true
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
		} else {
			l.pos = save
		}
	}
	text := l.src[start:l.pos]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return l.errf("bad float %q: %v", text, err)
		}
		l.emit(token{kind: tokFloat, text: text, fval: f, pos: start, line: l.line})
		return nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return l.errf("bad integer %q: %v", text, err)
	}
	l.emit(token{kind: tokInt, text: text, ival: i, pos: start, line: l.line})
	return nil
}

func (l *lexer) lexQuotedAtom() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			b.WriteByte(l.src[l.pos+1])
			l.pos += 2
			continue
		}
		if c == '\'' {
			l.pos++
			l.emit(token{kind: tokAtom, text: b.String(), pos: start, line: l.line})
			return nil
		}
		if c == '\n' {
			l.line++
		}
		b.WriteByte(c)
		l.pos++
	}
	return l.errf("unterminated quoted atom")
}

// lexString scans a Go-style double-quoted string literal and decodes
// it with strconv.Unquote, so every escape strconv.Quote can emit
// (\n, \t, \xHH, \uHHHH, ...) round-trips.
func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos += 2
			continue
		}
		if c == '"' {
			raw := l.src[start : l.pos+1]
			l.pos++
			text, err := strconv.Unquote(raw)
			if err != nil {
				return l.errf("bad string literal %s: %v", raw, err)
			}
			l.emit(token{kind: tokString, text: text, pos: start, line: l.line})
			return nil
		}
		if c == '\n' {
			// Raw newlines are not valid inside Go-style string
			// literals; the canonical printer never emits them.
			return l.errf("newline in string literal")
		}
		l.pos++
	}
	return l.errf("unterminated string")
}

// punctuation lexemes ordered longest-first for maximal munch.
var punctLexemes = []string{
	pArrow2, pSArrow2, pArrow, pSArrow, pIf, pQuery, pIsa,
	pNeq, pNeqAlt, pLe, pLeAlt, pGe, pSlash2,
	pLParen, pRParen, pLBracket, pRBracket, pLBrace, pRBrace,
	pComma, pSemi, pDot, pColon, pEq, pLt, pGt, pPlus, pMinus, pStar, pSlash,
}

func (l *lexer) lexPunct() error {
	rest := l.src[l.pos:]
	for _, p := range punctLexemes {
		if strings.HasPrefix(rest, p) {
			l.emit(token{kind: tokPunct, text: p, pos: l.pos, line: l.line})
			l.pos += len(p)
			return nil
		}
	}
	r := rune(l.src[l.pos])
	if unicode.IsPrint(r) {
		return l.errf("unexpected character %q", r)
	}
	return l.errf("unexpected byte 0x%02x", l.src[l.pos])
}
