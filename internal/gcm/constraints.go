package gcm

import (
	"fmt"

	"modelmed/internal/datalog"
	"modelmed/internal/flogic"
	"modelmed/internal/parser"
	"modelmed/internal/term"
)

// ICClass is the distinguished inconsistency class: integrity-constraint
// violations insert failure-witness objects into it (Section 3, (IC)).
const ICClass = "ic"

// Constraint declares one integrity check on a model. Declarations
// compile to facts consumed by the generic constraint rules.
type Constraint interface {
	declarations() []datalog.Rule
}

// PartialOrder checks that relation Rel is a partial order on class
// Class — the paper's Example 2, producing wrc (reflexivity), wtc
// (transitivity) and was (antisymmetry) witnesses.
type PartialOrder struct {
	Class, Rel string
}

func (c PartialOrder) declarations() []datalog.Rule {
	return []datalog.Rule{datalog.Fact("po_constraint", term.Atom(c.Class), term.Atom(c.Rel))}
}

// KeyMethod checks that method Method is a key on class Class: no two
// distinct instances share a value.
type KeyMethod struct {
	Class, Method string
}

func (c KeyMethod) declarations() []datalog.Rule {
	return []datalog.Rule{datalog.Fact("key_method", term.Atom(c.Class), term.Atom(c.Method))}
}

// Inclusion checks that every tuple of binary relation Sub also occurs
// in Super (an inclusion dependency).
type Inclusion struct {
	Sub, Super string
}

func (c Inclusion) declarations() []datalog.Rule {
	return []datalog.Rule{datalog.Fact("incl_constraint", term.Atom(c.Sub), term.Atom(c.Super))}
}

// constraintSrc holds the generic integrity-constraint rules. They range
// over the declaration facts and insert witnesses into ic.
//
// Example 2 (partial order on C via R):
//
//	(1) wrc(C,R,X) : ic      :- X : C, not R(X,X).
//	(2) wtc(C,R,X,Z,Y) : ic  :- X,Y,Z : C, R(X,Z), R(Z,Y), not R(X,Y).
//	(3) was(C,R,X,Y) : ic    :- X : C, R(X,Y), R(Y,X), X != Y.
//
// Example 3 (cardinality on binary relations): counting per the opposite
// role's value, as in the paper's w_{!=1} and w_{>2} rules; a separate
// zero-count rule catches role fillers with no partner when Min > 0.
//
// Scalar methods: at most one value per object.
const constraintSrc = `
	% ---- Example 2: partial order ----
	wrc(C, R, X) : ic :-
		po_constraint(C, R), X : C, not relinst(R, X, X).
	wtc(C, R, X, Z, Y) : ic :-
		po_constraint(C, R), X : C, Y : C, Z : C,
		relinst(R, X, Z), relinst(R, Z, Y), not relinst(R, X, Y).
	was(C, R, X, Y) : ic :-
		po_constraint(C, R), X : C,
		relinst(R, X, Y), relinst(R, Y, X), X \= Y.

	% ---- Example 3: cardinality of the first role per second-role value ----
	w_card_max(R, VB, N) : ic :-
		card_first(R, Min, Max), Max >= 0,
		N = count{VA[VB, R]; relinst(R, VA, VB), card_first(R, Min2, Max2)},
		N > Max.
	w_card_min(R, VB, N) : ic :-
		card_first(R, Min, Max), Min > 0,
		N = count{VA[VB, R]; relinst(R, VA, VB), card_first(R, Min2, Max2)},
		N < Min.
	% Zero fillers: a second-role object with no partner at all.
	w_card_zero(R, Y) : ic :-
		card_first(R, Min, Max), Min > 0,
		relattr(R, A, CB, 1), Y : CB, not first_filled(R, Y).
	first_filled(R, Y) :- relinst(R, X, Y).

	% ---- Cardinality of the second role per first-role value ----
	w_card2_max(R, VA, N) : ic :-
		card_second(R, Min, Max), Max >= 0,
		N = count{VB[VA, R]; relinst(R, VA, VB), card_second(R, Min2, Max2)},
		N > Max.
	w_card2_min(R, VA, N) : ic :-
		card_second(R, Min, Max), Min > 0,
		N = count{VB[VA, R]; relinst(R, VA, VB), card_second(R, Min2, Max2)},
		N < Min.
	w_card2_zero(R, X) : ic :-
		card_second(R, Min, Max), Min > 0,
		relattr(R, A, CA, 0), X : CA, not second_filled(R, X).
	second_filled(R, X) :- relinst(R, X, Y).

	% ---- Scalar methods: at most one value ----
	w_scalar(C, M, X, V1, V2) : ic :-
		scalar_method(C, M), X : C,
		methodinst(X, M, V1), methodinst(X, M, V2), V1 \= V2.

	% ---- Key methods: values identify objects ----
	w_key(C, M, X, Y, V) : ic :-
		key_method(C, M), X : C, Y : C, X \= Y,
		methodinst(X, M, V), methodinst(Y, M, V).

	% ---- Inclusion dependencies on binary relations ----
	w_incl(R1, R2, X, Y) : ic :-
		incl_constraint(R1, R2), relinst(R1, X, Y), not relinst(R2, X, Y).
`

// ConstraintRules returns the generic integrity-constraint rule library.
func ConstraintRules() []datalog.Rule {
	return parser.MustParseRules(constraintSrc)
}

// Witness is one decoded inconsistency witness.
type Witness struct {
	// Kind is the witness functor, e.g. "wrc", "w_card_max".
	Kind string
	// Args are the witness arguments (constraint parameters and the
	// violating objects/values).
	Args []term.Term
}

func (w Witness) String() string {
	return fmt.Sprintf("%s%s", w.Kind, term.FormatTuple(w.Args))
}

// Witnesses extracts and decodes all members of the ic class from an
// evaluation result, sorted deterministically.
func Witnesses(res *datalog.Result) []Witness {
	rel := res.Store.Rel(datalog.PredKey("instance", 2))
	if rel == nil {
		return nil
	}
	var out []Witness
	for _, row := range rel.SortedRows() {
		if !row[1].Equal(term.Atom(ICClass)) {
			continue
		}
		w := row[0]
		switch w.Kind() {
		case term.KindCompound:
			out = append(out, Witness{Kind: w.Name(), Args: w.Args()})
		default:
			out = append(out, Witness{Kind: w.Name()})
		}
	}
	return out
}

// WitnessesOfKind filters witnesses by functor.
func WitnessesOfKind(res *datalog.Result, kind string) []Witness {
	var out []Witness
	for _, w := range Witnesses(res) {
		if w.Kind == kind {
			out = append(out, w)
		}
	}
	return out
}

// Check evaluates a model in two phases, mirroring how the paper treats
// denials as checks over a *populated* CM instance: phase 1 materializes
// the conceptual model (FL axioms + model facts + semantic rules + any
// extra rules such as relation mirrors); phase 2 runs the integrity-
// constraint library over the materialized instance as extensional data.
// The two-phase split also keeps the constraint aggregates out of any
// recursion with the closure axioms.
func Check(m *Model, extra ...datalog.Rule) (*datalog.Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := datalog.NewEngine(nil)
	if err := e.AddRules(flogic.Axioms()...); err != nil {
		return nil, err
	}
	if err := e.AddRules(m.Facts()...); err != nil {
		return nil, err
	}
	if err := e.AddRules(extra...); err != nil {
		return nil, err
	}
	res1, err := e.Run()
	if err != nil {
		return nil, err
	}
	res2, err := CheckStore(res1.Store)
	if err != nil {
		return nil, err
	}
	res2.Rounds += res1.Rounds
	res2.Firings += res1.Firings
	return res2, nil
}

// CheckStore runs the integrity-constraint library over an already
// materialized fact store (treated as extensional data) and returns the
// result, whose store contains the input facts plus any ic witnesses.
func CheckStore(store *datalog.Store) (*datalog.Result, error) {
	e := datalog.NewEngine(nil)
	if err := e.AddRules(ConstraintRules()...); err != nil {
		return nil, err
	}
	e.SeedEDB(store) // stored facts are ground by construction
	return e.Run()
}
