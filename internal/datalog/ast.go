// Package datalog implements the deductive engine that serves as the
// paper's generic conceptual model (GCM) rule language: Datalog with
// stratified and well-founded negation, function symbols, comparison and
// arithmetic built-ins, and grouped aggregation (count/sum/min/max/avg).
//
// The paper ("Model-Based Mediation with Domain Maps", ICDE 2001,
// Section 3) requires the GCM extension mechanism to express all of
// FO(LFP); Datalog with well-founded negation is exactly that language,
// and is what the authors' FLORA/F-logic prototype evaluates. This
// package is the from-scratch substitute for that engine.
package datalog

import (
	"strconv"
	"strings"

	"modelmed/internal/term"
)

// Literal is a (possibly negated) predicate application p(t1,...,tn).
// Built-in predicates (see builtin.go) use reserved names and are
// evaluated rather than matched against stored facts.
type Literal struct {
	Pred string
	Args []term.Term
	Neg  bool
}

// Lit builds a positive literal.
func Lit(pred string, args ...term.Term) Literal {
	return Literal{Pred: pred, Args: args}
}

// Not builds a negated literal.
func Not(pred string, args ...term.Term) Literal {
	return Literal{Pred: pred, Args: args, Neg: true}
}

// Negate returns l with its sign flipped.
func (l Literal) Negate() Literal {
	l.Neg = !l.Neg
	return l
}

// Key returns the predicate key "name/arity" identifying the relation the
// literal refers to.
func (l Literal) Key() string { return PredKey(l.Pred, len(l.Args)) }

// PredKey builds the canonical "name/arity" key for a predicate.
func PredKey(name string, arity int) string {
	return name + "/" + strconv.Itoa(arity)
}

// PredName recovers the predicate name from a "name/arity" key.
func PredName(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[:i]
	}
	return key
}

// String renders the literal in concrete syntax.
func (l Literal) String() string {
	var buf [128]byte
	return string(l.Append(buf[:0]))
}

// Append appends the literal's concrete syntax to dst.
func (l Literal) Append(dst []byte) []byte {
	if l.Neg {
		dst = append(dst, "not "...)
	}
	dst = term.Atom(l.Pred).Append(dst)
	if len(l.Args) > 0 {
		dst = append(dst, '(')
		for i, a := range l.Args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = a.Append(dst)
		}
		dst = append(dst, ')')
	}
	return dst
}

// Vars appends the variables of the literal to dst.
func (l Literal) Vars(dst []string) []string {
	for _, a := range l.Args {
		dst = a.Vars(dst)
	}
	return dst
}

func (Literal) bodyElem() {}

// AggOp is an aggregation operator.
type AggOp string

// Supported aggregation operators. Aggregation is over the set of
// distinct (value, group) combinations derived by the aggregate body, in
// keeping with the set-oriented semantics of F-logic aggregation used in
// the paper's Example 3.
const (
	AggCount AggOp = "count"
	AggSum   AggOp = "sum"
	AggMin   AggOp = "min"
	AggMax   AggOp = "max"
	AggAvg   AggOp = "avg"
)

// Aggregate is a grouped aggregation subgoal in the style of the paper's
// Example 3:
//
//	N = count{VA[VB]; R(VA,VB)}
//
// binds, for each group value of VB derived by the body, the variable N to
// the count of distinct VA values in that group. GroupBy variables act as
// generators: each derived group produces one continuation binding.
//
// By default aggregation is over the *set* of distinct values per group.
// When Key terms are given (concrete syntax `sum{A[G] per O; body}`),
// distinctness is over (value, key) combinations instead, giving
// bag-like semantics keyed by the paper's object identities: two objects
// with equal amounts both contribute to a sum.
type Aggregate struct {
	Result  term.Term // variable receiving the aggregate value
	Op      AggOp
	Value   term.Term   // the aggregated term (usually a variable)
	GroupBy []term.Term // grouping terms (usually variables); may be empty
	Key     []term.Term // distinctness keys (per-object aggregation); may be empty
	Body    []Literal   // the condition; evaluated under the outer bindings
}

// String renders the aggregate in concrete syntax.
func (a Aggregate) String() string {
	var b strings.Builder
	b.WriteString(a.Result.String())
	b.WriteString(" = ")
	b.WriteString(string(a.Op))
	b.WriteByte('{')
	b.WriteString(a.Value.String())
	if len(a.GroupBy) > 0 {
		b.WriteByte('[')
		for i, g := range a.GroupBy {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(g.String())
		}
		b.WriteByte(']')
	}
	for i, k := range a.Key {
		if i == 0 {
			b.WriteString(" per ")
		} else {
			b.WriteByte(',')
		}
		b.WriteString(k.String())
	}
	b.WriteString("; ")
	for i, l := range a.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Vars appends all variables of the aggregate (result, value, groups,
// body) to dst.
func (a Aggregate) Vars(dst []string) []string {
	dst = a.Result.Vars(dst)
	dst = a.Value.Vars(dst)
	for _, g := range a.GroupBy {
		dst = g.Vars(dst)
	}
	for _, k := range a.Key {
		dst = k.Vars(dst)
	}
	for _, l := range a.Body {
		dst = l.Vars(dst)
	}
	return dst
}

func (Aggregate) bodyElem() {}

// BodyElem is an element of a rule body: a Literal or an Aggregate.
type BodyElem interface {
	bodyElem()
	String() string
}

// Rule is a Horn rule with (possibly negated) body literals and
// aggregates: Head :- Body. A rule with an empty body is a fact schema
// (its head must be ground).
type Rule struct {
	Head Literal
	Body []BodyElem
}

// NewRule builds a rule.
func NewRule(head Literal, body ...BodyElem) Rule {
	return Rule{Head: head, Body: body}
}

// Fact builds a body-less rule.
func Fact(pred string, args ...term.Term) Rule {
	return Rule{Head: Lit(pred, args...)}
}

// String renders the rule in concrete syntax.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		var buf [128]byte
		return string(append(r.Head.Append(buf[:0]), '.'))
	}
	parts := make([]string, len(r.Body))
	for i, b := range r.Body {
		parts[i] = b.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Vars appends all variables occurring in the rule to dst.
func (r Rule) Vars(dst []string) []string {
	dst = r.Head.Vars(dst)
	for _, b := range r.Body {
		switch e := b.(type) {
		case Literal:
			dst = e.Vars(dst)
		case Aggregate:
			dst = e.Vars(dst)
		}
	}
	return dst
}

// RenameApart returns a copy of r with every variable suffixed by
// "#<n>", making its variables disjoint from any other rule instance.
func (r Rule) RenameApart(n int) Rule {
	suffix := "#" + strconv.Itoa(n)
	f := func(s string) string { return s + suffix }
	out := Rule{Head: renameLit(r.Head, f)}
	out.Body = make([]BodyElem, len(r.Body))
	for i, b := range r.Body {
		switch e := b.(type) {
		case Literal:
			out.Body[i] = renameLit(e, f)
		case Aggregate:
			out.Body[i] = renameAgg(e, f)
		}
	}
	return out
}

func renameLit(l Literal, f func(string) string) Literal {
	args := make([]term.Term, len(l.Args))
	for i, a := range l.Args {
		args[i] = a.Rename(f)
	}
	return Literal{Pred: l.Pred, Args: args, Neg: l.Neg}
}

func renameAgg(a Aggregate, f func(string) string) Aggregate {
	out := Aggregate{
		Result: a.Result.Rename(f),
		Op:     a.Op,
		Value:  a.Value.Rename(f),
	}
	out.GroupBy = make([]term.Term, len(a.GroupBy))
	for i, g := range a.GroupBy {
		out.GroupBy[i] = g.Rename(f)
	}
	out.Key = make([]term.Term, len(a.Key))
	for i, k := range a.Key {
		out.Key[i] = k.Rename(f)
	}
	out.Body = make([]Literal, len(a.Body))
	for i, l := range a.Body {
		out.Body[i] = renameLit(l, f)
	}
	return out
}

// Program is a set of rules plus extensional facts, the unit accepted by
// the Engine.
type Program struct {
	Rules []Rule
}

// Add appends rules to the program.
func (p *Program) Add(rs ...Rule) { p.Rules = append(p.Rules, rs...) }

// String renders the program one rule per line.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
