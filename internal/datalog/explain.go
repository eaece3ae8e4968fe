package datalog

import (
	"fmt"
	"strings"

	"modelmed/internal/term"
)

// Derivation explains one true fact: either it is extensional, or a
// rule instance derives it from explained premises. Explanations are
// reconstructed post-hoc against the fixpoint, so they are always
// well-founded (premises precede conclusions in derivation order).
type Derivation struct {
	// Fact is the explained ground atom.
	Pred string
	Args []term.Term
	// Rule is the instantiated rule that derives the fact; zero-value
	// (empty Head.Pred) for extensional facts.
	Rule Rule
	// Premises are the explanations of the positive stored body atoms.
	// Builtins, negations and aggregates are recorded in Conditions.
	Premises []*Derivation
	// Conditions are the non-premise body elements (negations, builtins,
	// aggregates) under the deriving substitution, as text.
	Conditions []string
	// Extensional reports whether the fact was given, not derived.
	Extensional bool
}

// String renders the derivation as an indented proof tree.
func (d *Derivation) String() string {
	var b strings.Builder
	d.write(&b, 0)
	return b.String()
}

func (d *Derivation) write(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s%s", indent, term.Atom(d.Pred).String(), term.FormatTuple(d.Args))
	if d.Extensional {
		b.WriteString("   [fact]\n")
		return
	}
	fmt.Fprintf(b, "   [by %s]\n", d.Rule.String())
	for _, c := range d.Conditions {
		fmt.Fprintf(b, "%s  | %s\n", indent, c)
	}
	for _, p := range d.Premises {
		p.write(b, depth+1)
	}
}

// explainer reconstructs derivations against a completed result.
type explainer struct {
	res   *Result
	rules []preparedRule
	memo  map[string]*Derivation
	depth int
}

// Explain returns a derivation for the ground fact pred(args...), or an
// error if the fact is not true in the result. The engine must be the
// one that produced the result (its rules are consulted); a fact of the
// EDB res was evaluated over is an extensional leaf.
func (e *Engine) Explain(res *Result, pred string, args ...term.Term) (*Derivation, error) {
	if !res.Holds(pred, args...) {
		return nil, fmt.Errorf("datalog: fact %s%s is not true", pred, term.FormatTuple(args))
	}
	rules, err := e.explainRules()
	if err != nil {
		return nil, err
	}
	ex := &explainer{res: res, rules: rules, memo: map[string]*Derivation{}}
	d := ex.explain(pred, args)
	if d == nil {
		return nil, fmt.Errorf("datalog: no derivation found for %s%s (well-founded fallback facts cannot always be explained)", pred, term.FormatTuple(args))
	}
	return d, nil
}

// explainRules returns the engine's rules with their bodies ordered,
// ordering them on the first call after a rule change. The explainer
// walks the ordered bodies with the interpreter, so nothing is compiled
// and no delta variant is built.
func (e *Engine) explainRules() ([]preparedRule, error) {
	if rules := e.explained.Load(); rules != nil {
		return *rules, nil
	}
	rules := make([]preparedRule, len(e.rules))
	for i, r := range e.rules {
		rules[i] = preparedRule{rule: r, headKey: r.Head.Key()}
		if len(r.Body) > 0 {
			ordered, err := OrderBody(r)
			if err != nil {
				return nil, err
			}
			rules[i].ordered = ordered
		}
	}
	e.explained.Store(&rules)
	return rules, nil
}

const maxExplainDepth = 10000

// explain finds a derivation for a true fact. To guarantee
// well-foundedness it only accepts premises that are extensional or
// already memoized, iterating in passes like the fixpoint itself would;
// for practicality it instead recurses with a visited guard, which is
// sound because every true fact of a stratified program has a
// non-circular derivation reachable this way.
func (ex *explainer) explain(pred string, args []term.Term) *Derivation {
	key := PredKey(pred, len(args)) + "|" + tupleKey(args)
	if d, ok := ex.memo[key]; ok {
		return d // may be nil while in progress: cycle guard
	}
	ex.memo[key] = nil // mark in progress
	ex.depth++
	defer func() { ex.depth-- }()
	if ex.depth > maxExplainDepth {
		return nil
	}

	if ex.res.edb.Contains(pred, args) {
		d := &Derivation{Pred: pred, Args: args, Extensional: true}
		ex.memo[key] = d
		return d
	}
	goal := make([]term.Term, len(args))
	copy(goal, args)
	for _, pr := range ex.rules {
		if pr.rule.Head.Pred != pred || len(pr.rule.Head.Args) != len(args) {
			continue
		}
		if len(pr.rule.Body) == 0 {
			// A program fact (body-less rule).
			match := true
			for i := range goal {
				if !pr.rule.Head.Args[i].Equal(goal[i]) {
					match = false
					break
				}
			}
			if match {
				d := &Derivation{Pred: pred, Args: goal, Extensional: true, Rule: pr.rule}
				ex.memo[key] = d
				return d
			}
			continue
		}
		d := ex.tryRule(pr, goal)
		if d != nil {
			ex.memo[key] = d
			return d
		}
	}
	delete(ex.memo, key) // allow retry through another path
	return nil
}

// tryRule attempts to derive goal via one rule, returning the first
// derivation whose premises all explain.
func (ex *explainer) tryRule(pr preparedRule, goal []term.Term) *Derivation {
	s := term.NewSubst()
	trail, ok := s.MatchTuple(pr.rule.Head.Args, goal)
	if !ok {
		s.Undo(trail)
		return nil
	}
	ev := &evalCtx{store: ex.res.Store, negCtx: ex.res.Store, opts: &Options{MaxTermDepth: 64, MaxIterations: 1}}
	var found *Derivation
	stop := fmt.Errorf("stop")
	err := ev.match(pr.ordered, 0, -1, s, func(s2 *term.Subst) error {
		d := &Derivation{Pred: pr.rule.Head.Pred, Args: goal, Rule: instantiateRule(pr.rule, s2)}
		for _, e := range pr.ordered {
			switch l := e.(type) {
			case Literal:
				if IsBuiltin(l.Pred, len(l.Args)) || l.Neg {
					d.Conditions = append(d.Conditions, instantiateLit(l, s2).String())
					continue
				}
				premArgs := make([]term.Term, len(l.Args))
				for i, a := range l.Args {
					premArgs[i] = s2.Apply(a)
				}
				prem := ex.explain(l.Pred, premArgs)
				if prem == nil {
					return nil // circular support; try the next solution
				}
				d.Premises = append(d.Premises, prem)
			case Aggregate:
				d.Conditions = append(d.Conditions, l.String())
			}
		}
		found = d
		return stop
	})
	if err != nil && err != stop {
		return nil
	}
	return found
}

func instantiateRule(r Rule, s *term.Subst) Rule {
	out := Rule{Head: instantiateLit(r.Head, s)}
	for _, e := range r.Body {
		switch l := e.(type) {
		case Literal:
			out.Body = append(out.Body, instantiateLit(l, s))
		case Aggregate:
			out.Body = append(out.Body, l)
		}
	}
	return out
}

func instantiateLit(l Literal, s *term.Subst) Literal {
	args := make([]term.Term, len(l.Args))
	for i, a := range l.Args {
		args[i] = s.Apply(a)
	}
	return Literal{Pred: l.Pred, Args: args, Neg: l.Neg}
}
