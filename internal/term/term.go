// Package term implements the first-order term language underlying the
// generic conceptual model (GCM) rule engine: constants (atoms, integers,
// floats, strings), variables, and compound terms with function symbols.
//
// Compound terms are required by the paper's assertion-mode execution of
// domain-map edges, which creates Skolem placeholder objects such as
// f_{C,r,D}(x) ("Model-Based Mediation with Domain Maps", Section 4).
package term

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates the variants of a Term.
type Kind uint8

// The term variants.
const (
	// KindVar is a logic variable, e.g. X.
	KindVar Kind = iota
	// KindAtom is a symbolic constant, e.g. neuron or 'Purkinje Cell'.
	KindAtom
	// KindInt is a 64-bit integer constant.
	KindInt
	// KindFloat is a 64-bit floating point constant.
	KindFloat
	// KindString is a string constant, e.g. "rat".
	KindString
	// KindCompound is a compound term f(t1,...,tn) with n >= 1.
	KindCompound
)

func (k Kind) String() string {
	switch k {
	case KindVar:
		return "var"
	case KindAtom:
		return "atom"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindCompound:
		return "compound"
	}
	return "invalid"
}

// Term is a first-order term. Terms are immutable values; the Args slice of
// a compound term must not be mutated after construction.
//
// The canonical key (see Key) is precomputed at construction, so the
// fact-store hot paths (Insert/Contains/Select) reduce to a field read
// instead of rebuilding the encoding on every probe.
type Term struct {
	kind    Kind
	functor string // variable name, atom name, string value, or compound functor
	ival    int64
	fval    float64
	args    []Term
	key     string // canonical encoding, precomputed at construction
}

// leafKey builds the key of a functor-carrying leaf: tag, name length,
// ':', name.
func leafKey(tag byte, name string) string {
	var b strings.Builder
	b.Grow(len(name) + 8)
	b.WriteByte(tag)
	b.WriteString(strconv.Itoa(len(name)))
	b.WriteByte(':')
	b.WriteString(name)
	return b.String()
}

// smallIntKeys caches the keys of the most common integer constants.
var smallIntKeys = func() [256]string {
	var out [256]string
	for i := range out {
		out[i] = "i" + strconv.Itoa(i) + ";"
	}
	return out
}()

func intKey(v int64) string {
	if v >= 0 && v < int64(len(smallIntKeys)) {
		return smallIntKeys[v]
	}
	return "i" + strconv.FormatInt(v, 10) + ";"
}

// compKey builds a compound key from the (already cached) keys of the
// arguments.
func compKey(functor string, args []Term) string {
	var b strings.Builder
	n := len(functor) + 10
	for _, a := range args {
		n += len(a.key)
	}
	b.Grow(n)
	b.WriteByte('c')
	b.WriteString(strconv.Itoa(len(args)))
	b.WriteString(strconv.Itoa(len(functor)))
	b.WriteByte(':')
	b.WriteString(functor)
	for _, a := range args {
		if a.key != "" {
			b.WriteString(a.key)
		} else {
			a.writeKey(&b)
		}
	}
	return b.String()
}

// Var returns a variable term with the given name.
func Var(name string) Term { return Term{kind: KindVar, functor: name, key: leafKey('V', name)} }

// Atom returns a symbolic constant with the given name.
func Atom(name string) Term { return Term{kind: KindAtom, functor: name, key: leafKey('a', name)} }

// Int returns an integer constant.
func Int(v int64) Term { return Term{kind: KindInt, ival: v, key: intKey(v)} }

// Float returns a floating point constant.
func Float(v float64) Term {
	return Term{kind: KindFloat, fval: v, key: "f" + strconv.FormatFloat(v, 'b', -1, 64) + ";"}
}

// Str returns a string constant.
func Str(v string) Term { return Term{kind: KindString, functor: v, key: leafKey('s', v)} }

// Comp returns the compound term functor(args...). It panics if no
// arguments are given; use Atom for zero-ary symbols.
func Comp(functor string, args ...Term) Term {
	if len(args) == 0 {
		panic("term: compound term requires at least one argument")
	}
	cp := make([]Term, len(args))
	copy(cp, args)
	return newCompound(functor, cp)
}

// newCompound builds a compound term taking ownership of args.
func newCompound(functor string, args []Term) Term {
	return Term{kind: KindCompound, functor: functor, args: args, key: compKey(functor, args)}
}

// Bool returns the atom true or false.
func Bool(b bool) Term {
	if b {
		return Atom("true")
	}
	return Atom("false")
}

// Kind reports the variant of t.
func (t Term) Kind() Kind { return t.kind }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.kind == KindVar }

// IsConst reports whether t is a non-compound constant.
func (t Term) IsConst() bool {
	switch t.kind {
	case KindAtom, KindInt, KindFloat, KindString:
		return true
	}
	return false
}

// Name returns the variable name, atom name, string value, or compound
// functor of t. It returns "" for numeric constants.
func (t Term) Name() string { return t.functor }

// IntVal returns the integer value of an integer constant.
func (t Term) IntVal() int64 { return t.ival }

// FloatVal returns the float value of a float constant.
func (t Term) FloatVal() float64 { return t.fval }

// Args returns the argument list of a compound term (nil otherwise). The
// returned slice must not be modified.
func (t Term) Args() []Term { return t.args }

// Arity returns the number of arguments (0 for non-compound terms).
func (t Term) Arity() int { return len(t.args) }

// Numeric reports whether t is an integer or float constant, and if so
// returns its value as a float64.
func (t Term) Numeric() (float64, bool) {
	switch t.kind {
	case KindInt:
		return float64(t.ival), true
	case KindFloat:
		return t.fval, true
	}
	return 0, false
}

// IsGround reports whether t contains no variables.
func (t Term) IsGround() bool {
	switch t.kind {
	case KindVar:
		return false
	case KindCompound:
		for _, a := range t.args {
			if !a.IsGround() {
				return false
			}
		}
	}
	return true
}

// Vars appends the names of all variables occurring in t to dst, in
// left-to-right order of first occurrence, and returns the extended slice.
// Each variable name appears at most once in the result, assuming dst had
// no duplicates.
func (t Term) Vars(dst []string) []string {
	switch t.kind {
	case KindVar:
		for _, v := range dst {
			if v == t.functor {
				return dst
			}
		}
		return append(dst, t.functor)
	case KindCompound:
		for _, a := range t.args {
			dst = a.Vars(dst)
		}
	}
	return dst
}

// Equal reports whether t and u are structurally identical.
func (t Term) Equal(u Term) bool {
	if t.key != "" && u.key != "" {
		// Keys are canonical: distinct terms have distinct keys.
		return t.key == u.key
	}
	if t.kind != u.kind {
		return false
	}
	switch t.kind {
	case KindVar, KindAtom, KindString:
		return t.functor == u.functor
	case KindInt:
		return t.ival == u.ival
	case KindFloat:
		return t.fval == u.fval
	case KindCompound:
		if t.functor != u.functor || len(t.args) != len(u.args) {
			return false
		}
		for i := range t.args {
			if !t.args[i].Equal(u.args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare imposes a total order on terms: variables < numbers < atoms <
// strings < compounds; numbers by value (ints and floats compared
// numerically), atoms/strings/variables lexicographically, compounds by
// arity, then functor, then arguments left to right. It returns -1, 0, +1.
func (t Term) Compare(u Term) int {
	to, uo := t.orderClass(), u.orderClass()
	if to != uo {
		if to < uo {
			return -1
		}
		return 1
	}
	switch to {
	case 0, 2, 3: // var, atom, string
		return strings.Compare(t.functor, u.functor)
	case 1: // numeric
		a, _ := t.Numeric()
		b, _ := u.Numeric()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		// Ints sort before floats of equal value for determinism.
		if t.kind != u.kind {
			if t.kind == KindInt {
				return -1
			}
			return 1
		}
		return 0
	default: // compound
		if d := len(t.args) - len(u.args); d != 0 {
			if d < 0 {
				return -1
			}
			return 1
		}
		if c := strings.Compare(t.functor, u.functor); c != 0 {
			return c
		}
		for i := range t.args {
			if c := t.args[i].Compare(u.args[i]); c != 0 {
				return c
			}
		}
		return 0
	}
}

func (t Term) orderClass() int {
	switch t.kind {
	case KindVar:
		return 0
	case KindInt, KindFloat:
		return 1
	case KindAtom:
		return 2
	case KindString:
		return 3
	default:
		return 4
	}
}

// needsQuote reports whether an atom name requires single quotes to be
// re-readable by the parser.
func needsQuote(s string) bool {
	if s == "" {
		return true
	}
	c := s[0]
	if !(c >= 'a' && c <= 'z') {
		return true
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			continue
		}
		return true
	}
	return false
}

// String renders t in the concrete syntax accepted by the parser: the
// bytes of Append.
func (t Term) String() string {
	if t.kind == KindVar || t.kind == KindAtom && !needsQuote(t.functor) {
		return t.functor
	}
	var buf [64]byte
	return string(t.Append(buf[:0]))
}

// Append appends the String form of t to dst and returns the extended
// slice.
func (t Term) Append(dst []byte) []byte {
	switch t.kind {
	case KindVar:
		dst = append(dst, t.functor...)
	case KindAtom:
		dst = appendName(dst, t.functor)
	case KindInt:
		dst = strconv.AppendInt(dst, t.ival, 10)
	case KindFloat:
		n := len(dst)
		dst = strconv.AppendFloat(dst, t.fval, 'g', -1, 64)
		// Keep floats re-readable as floats: "0" would reparse as an
		// integer.
		if !bytes.ContainsAny(dst[n:], ".eE") {
			dst = append(dst, ".0"...)
		}
	case KindString:
		dst = strconv.AppendQuote(dst, t.functor)
	case KindCompound:
		dst = appendName(dst, t.functor)
		dst = append(dst, '(')
		for i, a := range t.args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = a.Append(dst)
		}
		dst = append(dst, ')')
	}
	return dst
}

// appendName appends an atom name or functor, single-quoted with
// backslashes and quotes escaped when the parser needs that to re-read
// it.
func appendName(dst []byte, name string) []byte {
	if !needsQuote(name) {
		return append(dst, name...)
	}
	dst = append(dst, '\'')
	for i := 0; i < len(name); i++ {
		if c := name[i]; c == '\\' || c == '\'' {
			dst = append(dst, '\\')
		}
		dst = append(dst, name[i])
	}
	return append(dst, '\'')
}

// Key returns a canonical encoding of t usable as a map key. Distinct
// terms have distinct keys. Only ground terms should be used as keys in
// fact stores, but Key is defined for all terms. The key is precomputed
// at construction, so calls on constructor-built terms are free; only
// zero-value Terms fall back to encoding on demand.
func (t Term) Key() string {
	if t.key != "" {
		return t.key
	}
	var b strings.Builder
	t.writeKey(&b)
	return b.String()
}

func (t Term) writeKey(b *strings.Builder) {
	if t.key != "" {
		b.WriteString(t.key)
		return
	}
	switch t.kind {
	case KindVar:
		b.WriteByte('V')
	case KindAtom:
		b.WriteByte('a')
	case KindInt:
		b.WriteByte('i')
		b.WriteString(strconv.FormatInt(t.ival, 10))
		b.WriteByte(';')
		return
	case KindFloat:
		b.WriteByte('f')
		b.WriteString(strconv.FormatFloat(t.fval, 'b', -1, 64))
		b.WriteByte(';')
		return
	case KindString:
		b.WriteByte('s')
	case KindCompound:
		b.WriteByte('c')
		b.WriteString(strconv.Itoa(len(t.args)))
	}
	b.WriteString(strconv.Itoa(len(t.functor)))
	b.WriteByte(':')
	b.WriteString(t.functor)
	for _, a := range t.args {
		a.writeKey(b)
	}
}

// Rename returns a copy of t with every variable name passed through f.
func (t Term) Rename(f func(string) string) Term {
	switch t.kind {
	case KindVar:
		return Var(f(t.functor))
	case KindCompound:
		args := make([]Term, len(t.args))
		for i, a := range t.args {
			args[i] = a.Rename(f)
		}
		return newCompound(t.functor, args)
	default:
		return t
	}
}

// SortTerms sorts ts in place by Compare.
func SortTerms(ts []Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// FormatTuple renders a tuple of terms as "(t1,...,tn)".
func FormatTuple(ts []Term) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// MustAtomName returns the atom name of t, panicking if t is not an atom.
// It is a convenience for callers that have already validated kinds.
func MustAtomName(t Term) string {
	if t.kind != KindAtom {
		panic(fmt.Sprintf("term: expected atom, got %s %s", t.kind, t))
	}
	return t.functor
}
