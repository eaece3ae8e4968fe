package parser

import (
	"fmt"
	"strconv"

	"modelmed/internal/datalog"
	"modelmed/internal/term"
)

// ParsedProgram is the result of parsing a rule file: the rules (with all
// F-logic frame syntax desugared to GCM core predicates, and negated
// conjunctions folded into auxiliary predicates) plus any `?-` queries.
type ParsedProgram struct {
	Program *datalog.Program
	Queries [][]datalog.BodyElem
}

// Parse parses a complete rule text. Like every parse entry point in
// this package it never panics on malformed input: an internal panic
// (a bug driving the cursor out of bounds on some garbage program) is
// converted to a returned error so interactive callers can print it
// and continue.
func Parse(src string) (_ *ParsedProgram, err error) {
	defer recoverParse(&err)
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	out := &ParsedProgram{Program: &datalog.Program{}}
	for !p.at(tokEOF, "") {
		if p.atPunct(pQuery) {
			p.advance()
			body, aux, err := p.parseClauseBody()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(pDot); err != nil {
				return nil, err
			}
			out.Queries = append(out.Queries, body)
			out.Program.Add(aux...)
			continue
		}
		rules, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		out.Program.Add(rules...)
	}
	return out, nil
}

// ParseRules parses rule text containing no queries and returns the rules.
func ParseRules(src string) ([]datalog.Rule, error) {
	pp, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(pp.Queries) > 0 {
		return nil, fmt.Errorf("parser: unexpected query in rule text")
	}
	return pp.Program.Rules, nil
}

// MustParseRules is ParseRules panicking on error; for tests and
// statically known rule text.
func MustParseRules(src string) []datalog.Rule {
	rs, err := ParseRules(src)
	if err != nil {
		panic(err)
	}
	return rs
}

// ParseQuery parses a query body (without the leading `?-` and trailing
// dot optional). It returns the body elements plus any auxiliary rules
// generated for negated conjunctions.
func ParseQuery(src string) (_ []datalog.BodyElem, _ []datalog.Rule, err error) {
	defer recoverParse(&err)
	toks, err := lex(src)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: toks}
	body, aux, err := p.parseClauseBody()
	if err != nil {
		return nil, nil, err
	}
	if p.atPunct(pDot) {
		p.advance()
	}
	if !p.at(tokEOF, "") {
		return nil, nil, fmt.Errorf("parser: trailing input after query at line %d", p.peek().line)
	}
	return body, aux, nil
}

// ParseTerm parses a single term.
func ParseTerm(src string) (_ term.Term, err error) {
	defer recoverParse(&err)
	toks, err := lex(src)
	if err != nil {
		return term.Term{}, err
	}
	p := &parser{toks: toks}
	t, err := p.parseExpr()
	if err != nil {
		return term.Term{}, err
	}
	if !p.at(tokEOF, "") {
		return term.Term{}, fmt.Errorf("parser: trailing input after term at line %d", p.peek().line)
	}
	return t, nil
}

// recoverParse converts a panic escaping the recursive-descent core
// into a returned error. The zero results of the recovering entry
// point are returned alongside it.
func recoverParse(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("parser: invalid input: %v", r)
	}
}

// AuxPrefix starts the name of every auxiliary predicate a negated
// conjunction folds into: $not1, $not2, … in each parse, so callers that
// combine several parses must rename them apart.
const AuxPrefix = "$not"

type parser struct {
	toks   []token
	idx    int
	freshN int // anonymous variable counter
	auxN   int // auxiliary predicate counter (negated conjunctions)
}

func (p *parser) peek() token    { return p.toks[p.idx] }
func (p *parser) advance() token { t := p.toks[p.idx]; p.idx++; return t }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) atPunct(text string) bool { return p.at(tokPunct, text) }

func (p *parser) atAtom(text string) bool { return p.at(tokAtom, text) }

func (p *parser) expectPunct(text string) error {
	if !p.atPunct(text) {
		return p.errf("expected %q, got %q", text, p.peek().text)
	}
	p.advance()
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("parser: line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) fresh() term.Term {
	p.freshN++
	return term.Var("_G" + strconv.Itoa(p.freshN))
}

// bodyItem is a body element or a negated conjunction pending folding.
type bodyItem struct {
	elem datalog.BodyElem
	neg  []datalog.BodyElem // non-nil: a `not ( ... )` group
}

// parseRule parses head [:- body] '.' and returns the desugared rules
// (one per head literal, sharing the body) plus auxiliary rules.
func (p *parser) parseRule() ([]datalog.Rule, error) {
	heads, err := p.parseHead()
	if err != nil {
		return nil, err
	}
	var body []datalog.BodyElem
	var aux []datalog.Rule
	if p.atPunct(pIf) {
		p.advance()
		body, aux, err = p.parseClauseBody()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(pDot); err != nil {
		return nil, err
	}
	rules := make([]datalog.Rule, 0, len(heads)+len(aux))
	for _, h := range heads {
		rules = append(rules, datalog.Rule{Head: h, Body: body})
	}
	rules = append(rules, aux...)
	return rules, nil
}

// parseHead parses a head expression, which may desugar into several
// positive literals (e.g. `D : c[m->V]` yields instance and methodinst
// atoms).
func (p *parser) parseHead() ([]datalog.Literal, error) {
	items, err := p.parseLiteralExpr(false)
	if err != nil {
		return nil, err
	}
	heads := make([]datalog.Literal, 0, len(items))
	for _, it := range items {
		l, ok := it.(datalog.Literal)
		if !ok {
			return nil, p.errf("aggregate not allowed in rule head")
		}
		if l.Neg {
			return nil, p.errf("negation not allowed in rule head")
		}
		if datalog.IsBuiltin(l.Pred, len(l.Args)) {
			return nil, p.errf("builtin %s not allowed in rule head", l.Pred)
		}
		heads = append(heads, l)
	}
	if len(heads) == 0 {
		return nil, p.errf("empty head")
	}
	return heads, nil
}

// parseClauseBody parses a comma-separated body and folds negated
// conjunctions into auxiliary rules (Lloyd-Topor transformation): each
// `not (G1,...,Gk)` becomes `not $auxN(V1..Vm)` where V1..Vm are the
// variables the group shares with the rest of the clause, plus the rule
// `$auxN(V1..Vm) :- G1,...,Gk`.
func (p *parser) parseClauseBody() ([]datalog.BodyElem, []datalog.Rule, error) {
	var items []bodyItem
	for {
		it, err := p.parseBodyItem()
		if err != nil {
			return nil, nil, err
		}
		items = append(items, it...)
		if p.atPunct(pComma) {
			p.advance()
			continue
		}
		break
	}
	// Collect variables outside each group (over all other items).
	var body []datalog.BodyElem
	var aux []datalog.Rule
	for i, it := range items {
		if it.neg == nil {
			body = append(body, it.elem)
			continue
		}
		outside := map[string]struct{}{}
		for j, other := range items {
			if j == i {
				continue
			}
			var vs []string
			if other.neg != nil {
				vs = elemsVars(other.neg)
			} else {
				vs = elemVars(other.elem)
			}
			for _, v := range vs {
				outside[v] = struct{}{}
			}
		}
		groupVars := elemsVars(it.neg)
		var shared []term.Term
		for _, gv := range groupVars {
			if _, ok := outside[gv]; ok {
				shared = append(shared, term.Var(gv))
			}
		}
		p.auxN++
		pred := AuxPrefix + strconv.Itoa(p.auxN)
		aux = append(aux, datalog.Rule{Head: datalog.Lit(pred, shared...), Body: it.neg})
		nl := datalog.Lit(pred, shared...)
		nl.Neg = true
		body = append(body, nl)
	}
	return body, aux, nil
}

func elemVars(e datalog.BodyElem) []string {
	switch x := e.(type) {
	case datalog.Literal:
		return x.Vars(nil)
	case datalog.Aggregate:
		return x.Vars(nil)
	}
	return nil
}

func elemsVars(es []datalog.BodyElem) []string {
	var out []string
	seen := map[string]struct{}{}
	for _, e := range es {
		for _, v := range elemVars(e) {
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		}
	}
	return out
}

// parseBodyItem parses one comma-level body element, which may expand to
// several items (frame desugaring).
func (p *parser) parseBodyItem() ([]bodyItem, error) {
	if p.atAtom("not") {
		p.advance()
		if p.atPunct(pLParen) {
			// Negated group: not (G1, ..., Gk).
			p.advance()
			var group []datalog.BodyElem
			for {
				sub, err := p.parseBodyItem()
				if err != nil {
					return nil, err
				}
				for _, it := range sub {
					if it.neg != nil {
						return nil, p.errf("nested negated groups are not supported")
					}
					group = append(group, it.elem)
				}
				if p.atPunct(pComma) {
					p.advance()
					continue
				}
				break
			}
			if err := p.expectPunct(pRParen); err != nil {
				return nil, err
			}
			return []bodyItem{{neg: group}}, nil
		}
		items, err := p.parseLiteralExpr(true)
		if err != nil {
			return nil, err
		}
		if len(items) != 1 {
			// `not O[m1->V; m2->W]` is a negated conjunction: fold it.
			return []bodyItem{{neg: items}}, nil
		}
		l, ok := items[0].(datalog.Literal)
		if !ok {
			return nil, p.errf("cannot negate an aggregate")
		}
		return []bodyItem{{elem: l.Negate()}}, nil
	}
	items, err := p.parseLiteralExpr(true)
	if err != nil {
		return nil, err
	}
	out := make([]bodyItem, len(items))
	for i, it := range items {
		out[i] = bodyItem{elem: it}
	}
	return out, nil
}

// parseLiteralExpr parses one literal-ish expression: a predicate call, a
// frame expression (possibly desugaring to several literals), or (when
// inBody) an infix builtin or aggregate equation.
func (p *parser) parseLiteralExpr(inBody bool) ([]datalog.BodyElem, error) {
	left, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch {
	case p.atPunct(pColon):
		p.advance()
		class, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		lits := []datalog.BodyElem{datalog.Lit("instance", left, class)}
		if p.atPunct(pLBracket) {
			frame, err := p.parseFrame(left)
			if err != nil {
				return nil, err
			}
			lits = append(lits, frame...)
		}
		return lits, nil
	case p.atPunct(pIsa):
		p.advance()
		super, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		lits := []datalog.BodyElem{datalog.Lit("subclass", left, super)}
		if p.atPunct(pLBracket) {
			frame, err := p.parseFrame(left)
			if err != nil {
				return nil, err
			}
			lits = append(lits, frame...)
		}
		return lits, nil
	case p.atPunct(pLBracket):
		return p.parseFrame(left)
	}
	if inBody {
		if op, ok := p.peekBuiltinOp(); ok {
			p.advance()
			if op == datalog.BuiltinUnify {
				if agg, ok, err := p.tryParseAggregate(left); err != nil {
					return nil, err
				} else if ok {
					return []datalog.BodyElem{agg}, nil
				}
			}
			right, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return []datalog.BodyElem{datalog.Lit(op, left, right)}, nil
		}
	}
	lit, err := p.termToLiteral(left)
	if err != nil {
		return nil, err
	}
	return []datalog.BodyElem{lit}, nil
}

// peekBuiltinOp recognizes an infix builtin operator at the cursor.
func (p *parser) peekBuiltinOp() (string, bool) {
	t := p.peek()
	if t.kind == tokAtom && t.text == "is" {
		return datalog.BuiltinIs, true
	}
	if t.kind != tokPunct {
		return "", false
	}
	switch t.text {
	case pEq:
		return datalog.BuiltinUnify, true
	case pNeq, pNeqAlt:
		return datalog.BuiltinNotEq, true
	case pLt:
		return datalog.BuiltinLess, true
	case pLe, pLeAlt:
		return datalog.BuiltinLessEq, true
	case pGt:
		return datalog.BuiltinGrtr, true
	case pGe:
		return datalog.BuiltinGrtrEq, true
	}
	return "", false
}

// termToLiteral converts a parsed term into a predicate literal: a
// compound becomes pred(args); an atom becomes a 0-ary predicate; a
// $call marker (variable functor, e.g. R(X,Y) from the paper's Example 2
// schema-level rules) becomes relinst(R, args...).
func (p *parser) termToLiteral(t term.Term) (datalog.Literal, error) {
	switch t.Kind() {
	case term.KindAtom:
		return datalog.Lit(t.Name()), nil
	case term.KindCompound:
		if t.Name() == callMarker {
			args := append([]term.Term{t.Args()[0]}, t.Args()[1:]...)
			return datalog.Lit("relinst", args...), nil
		}
		switch t.Name() {
		case "+", "-", "*", "/", "//", "mod", "neg":
			return datalog.Literal{}, p.errf("arithmetic expression %s cannot stand as a literal", t)
		}
		return datalog.Lit(t.Name(), t.Args()...), nil
	}
	return datalog.Literal{}, p.errf("term %s cannot stand as a literal", t)
}

// tryParseAggregate parses `op{ value [grp,...] ; body }` after an `=`
// sign if the cursor is at an aggregation operator.
func (p *parser) tryParseAggregate(result term.Term) (datalog.Aggregate, bool, error) {
	t := p.peek()
	var op datalog.AggOp
	switch {
	case t.kind == tokAtom && t.text == "count":
		op = datalog.AggCount
	case t.kind == tokAtom && t.text == "sum":
		op = datalog.AggSum
	case t.kind == tokAtom && t.text == "min":
		op = datalog.AggMin
	case t.kind == tokAtom && t.text == "max":
		op = datalog.AggMax
	case t.kind == tokAtom && t.text == "avg":
		op = datalog.AggAvg
	default:
		return datalog.Aggregate{}, false, nil
	}
	if p.toks[p.idx+1].kind != tokPunct || p.toks[p.idx+1].text != pLBrace {
		return datalog.Aggregate{}, false, nil
	}
	p.advance() // op
	p.advance() // {
	value, err := p.parseExpr()
	if err != nil {
		return datalog.Aggregate{}, false, err
	}
	var groups []term.Term
	if p.atPunct(pLBracket) {
		p.advance()
		for {
			g, err := p.parseExpr()
			if err != nil {
				return datalog.Aggregate{}, false, err
			}
			groups = append(groups, g)
			if p.atPunct(pComma) {
				p.advance()
				continue
			}
			break
		}
		if err := p.expectPunct(pRBracket); err != nil {
			return datalog.Aggregate{}, false, err
		}
	}
	var keys []term.Term
	if p.atAtom("per") {
		p.advance()
		for {
			k, err := p.parseExpr()
			if err != nil {
				return datalog.Aggregate{}, false, err
			}
			keys = append(keys, k)
			if p.atPunct(pComma) {
				p.advance()
				continue
			}
			break
		}
	}
	if err := p.expectPunct(pSemi); err != nil {
		return datalog.Aggregate{}, false, err
	}
	var body []datalog.Literal
	for {
		items, err := p.parseBodyItem()
		if err != nil {
			return datalog.Aggregate{}, false, err
		}
		for _, it := range items {
			if it.neg != nil {
				return datalog.Aggregate{}, false, p.errf("negated groups are not supported inside aggregates")
			}
			l, ok := it.elem.(datalog.Literal)
			if !ok {
				return datalog.Aggregate{}, false, p.errf("nested aggregates are not supported")
			}
			body = append(body, l)
		}
		if p.atPunct(pComma) {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectPunct(pRBrace); err != nil {
		return datalog.Aggregate{}, false, err
	}
	return datalog.Aggregate{Result: result, Op: op, Value: value, GroupBy: groups, Key: keys, Body: body}, true, nil
}

// parseFrame parses `[ spec (';' spec)* ]` applied to obj, desugaring per
// Table 1: `m -> v` / `m ->> v` to methodinst(obj,m,v); `m => c` /
// `m =>> c` to method(obj,m,c). A braced value set produces one literal
// per element.
func (p *parser) parseFrame(obj term.Term) ([]datalog.BodyElem, error) {
	if err := p.expectPunct(pLBracket); err != nil {
		return nil, err
	}
	var out []datalog.BodyElem
	for {
		m, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind != tokPunct {
			return nil, p.errf("expected ->, ->>, => or =>> in frame, got %q", t.text)
		}
		switch t.text {
		case pArrow, pArrow2:
			p.advance()
			vals, err := p.parseValueSet()
			if err != nil {
				return nil, err
			}
			for _, v := range vals {
				out = append(out, datalog.Lit("methodinst", obj, m, v))
			}
		case pSArrow, pSArrow2:
			p.advance()
			c, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			out = append(out, datalog.Lit("method", obj, m, c))
		default:
			return nil, p.errf("expected ->, ->>, => or =>> in frame, got %q", t.text)
		}
		if p.atPunct(pSemi) {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectPunct(pRBracket); err != nil {
		return nil, err
	}
	return out, nil
}

// parseValueSet parses a frame value: a single expression or a braced
// set {v1,...,vn}.
func (p *parser) parseValueSet() ([]term.Term, error) {
	if p.atPunct(pLBrace) {
		p.advance()
		var out []term.Term
		for {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			if p.atPunct(pComma) {
				p.advance()
				continue
			}
			break
		}
		if err := p.expectPunct(pRBrace); err != nil {
			return nil, err
		}
		return out, nil
	}
	v, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return []term.Term{v}, nil
}

// callMarker wraps an application with a variable functor, produced only
// inside the parser and consumed by termToLiteral.
const callMarker = "$call"

// parseExpr parses an additive arithmetic expression.
func (p *parser) parseExpr() (term.Term, error) {
	left, err := p.parseMul()
	if err != nil {
		return term.Term{}, err
	}
	for p.atPunct(pPlus) || p.atPunct(pMinus) {
		op := p.advance().text
		right, err := p.parseMul()
		if err != nil {
			return term.Term{}, err
		}
		left = term.Comp(op, left, right)
	}
	return left, nil
}

func (p *parser) parseMul() (term.Term, error) {
	left, err := p.parseUnary()
	if err != nil {
		return term.Term{}, err
	}
	for {
		var op string
		switch {
		case p.atPunct(pStar):
			op = "*"
		case p.atPunct(pSlash):
			op = "/"
		case p.atPunct(pSlash2):
			op = "//"
		case p.atAtom("mod"):
			// In operator position a bare `mod` atom is always the
			// operator: an operand cannot directly follow an operand.
			op = "mod"
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return term.Term{}, err
		}
		left = term.Comp(op, left, right)
	}
}

func (p *parser) parseUnary() (term.Term, error) {
	if p.atPunct(pMinus) {
		p.advance()
		t := p.peek()
		switch t.kind {
		case tokInt:
			p.advance()
			return term.Int(-t.ival), nil
		case tokFloat:
			p.advance()
			return term.Float(-t.fval), nil
		}
		inner, err := p.parseUnary()
		if err != nil {
			return term.Term{}, err
		}
		return term.Comp("neg", inner), nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (term.Term, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.advance()
		return term.Int(t.ival), nil
	case tokFloat:
		p.advance()
		return term.Float(t.fval), nil
	case tokString:
		p.advance()
		return term.Str(t.text), nil
	case tokVar:
		p.advance()
		var tv term.Term
		if t.text == "_" {
			tv = p.fresh()
		} else {
			tv = term.Var(t.text)
		}
		if p.atPunct(pLParen) {
			args, err := p.parseArgs()
			if err != nil {
				return term.Term{}, err
			}
			return term.Comp(callMarker, append([]term.Term{tv}, args...)...), nil
		}
		return tv, nil
	case tokAtom:
		p.advance()
		if p.atPunct(pLParen) {
			args, err := p.parseArgs()
			if err != nil {
				return term.Term{}, err
			}
			return term.Comp(t.text, args...), nil
		}
		return term.Atom(t.text), nil
	case tokPunct:
		if t.text == pLParen {
			p.advance()
			inner, err := p.parseExpr()
			if err != nil {
				return term.Term{}, err
			}
			if err := p.expectPunct(pRParen); err != nil {
				return term.Term{}, err
			}
			return inner, nil
		}
	}
	return term.Term{}, p.errf("unexpected token %q", t.text)
}

func (p *parser) parseArgs() ([]term.Term, error) {
	if err := p.expectPunct(pLParen); err != nil {
		return nil, err
	}
	var args []term.Term
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.atPunct(pComma) {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectPunct(pRParen); err != nil {
		return nil, err
	}
	return args, nil
}
