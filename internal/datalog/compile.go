package datalog

// Rule compilation: each prepared rule body (and each of its semi-naive
// delta variants) is translated once, at prepare time, into a small
// register program over interned term IDs. The interpretive walk in
// evalCtx.match re-decides per tuple what kind of body element it is
// looking at, applies the substitution to every argument to find a
// probe, and threads a map-backed Subst through MatchTuple; the
// compiled form resolves all of that statically. Variables become
// register slots (a flat []uint32 of term IDs), literal arguments
// become const/bind/check micro-ops, index-probe candidates are fixed
// at compile time (the most selective bucket is still chosen per call,
// mirroring the interpreter's runtime choice exactly), and builtins
// compile to specialized comparison/arithmetic nodes.
//
// Compilation is best-effort: any construct outside the fast fragment —
// aggregates, `is` with a compound left-hand side, bodies whose
// boundness the compiler cannot prove — yields a nil program and the
// rule runs on the interpreter. Both paths derive identical fact
// sequences; the differential suite in compiled_diff_test.go holds them
// to that.
//
// A query body compiles the same way (compileQuery, once per
// PreparedQuery), with one rule of its own: a query must not grow the
// process-wide intern table, so its constants are looked up rather
// than interned — one not interned yet compiles to unboundID, which no
// stored row holds, and is recorded so the query is compiled again once
// it has an ID — and a body that would intern at run time (is, a
// composed term under = or \=, a pattern match inside a compound) is
// left to the interpreter, which never interns. Query solutions go to
// an answerSet (query.go) instead of the derived-fact queue.

import (
	"slices"

	"modelmed/internal/term"
)

// emptySubst is a shared read-only substitution for evaluating ground
// arithmetic terms through EvalArith (Walk on it is a pure map read).
var emptySubst = term.NewSubst()

type cOpKind uint8

const (
	opScan cOpKind = iota
	opNeg
	opCmp
	opEq
	opNeq
	opIs
	opUnify
)

type cArgKind uint8

const (
	argConst cArgKind = iota // ground argument, ID fixed at compile time
	argBind                  // first occurrence of a variable: bind register
	argCheck                 // variable already bound: compare register
	argBuild                 // compound, all vars bound before the literal
	argPat                   // compound with unbound vars: structural match
)

type cArg struct {
	kind cArgKind
	id   uint32    // argConst
	reg  int32     // argBind / argCheck
	b    cBuild    // argBuild
	pat  term.Term // argPat
	pre  bool      // argCheck: bound before the literal (probe-eligible)
}

type bKind uint8

const (
	bConst bKind = iota
	bReg
	bComp
)

// cBuild constructs a ground term (or its ID) from the registers.
type cBuild struct {
	kind bKind
	id   uint32    // bConst
	t    term.Term // bConst
	reg  int32     // bReg
	fn   string    // bComp
	args []cBuild  // bComp
}

type aKind uint8

const (
	aConst aKind = iota
	aReg
	aOp1
	aOp2
	aBuild // build the term, then EvalArith it (slow, error-faithful)
)

// cArith evaluates an arithmetic expression from the registers with the
// same result and error behavior as EvalArith over the applied term.
type cArith struct {
	kind aKind
	val  term.Term // aConst (numeric)
	reg  int32     // aReg
	op   string    // aOp1 / aOp2
	l, r *cArith
	b    cBuild // aBuild
}

type sKind uint8

const (
	sConst sKind = iota
	sReg
	sDyn // compound containing variables
)

// cSide is one side of a compiled comparison.
type cSide struct {
	kind  sKind
	t     term.Term // sConst
	reg   int32     // sReg
	b     cBuild    // sDyn
	isAr  bool      // static arithmetic classification (sConst/sDyn)
	arith *cArith   // evaluator when isAr
}

type cOp struct {
	kind   cOpKind
	relKey string // opScan / opNeg
	delta  bool   // opScan: read the round delta instead of the store
	args   []cArg // opScan
	nargs  []cBuild
	probes []int // opScan: probe-eligible arg positions, in arg order
	binds  []int32

	cmp      string // opCmp: "<", "=<", ">", ">="
	lhs, rhs cSide

	la, ra cBuild // opEq / opNeq / opUnify(value side = ra)

	dstReg   int32 // opIs: register of the variable lhs (-1 = const lhs)
	dstBound bool
	dstID    uint32 // opIs const lhs
	arith    *cArith

	pat term.Term // opUnify: the not-fully-bound side
}

// cProg is a compiled rule body plus head emitter.
type cProg struct {
	headKey string
	arity   int
	head    []cBuild
	ops     []cOp
	nRegs   int
	varReg  map[string]int32
}

// compiler tracks register assignment and boundness while translating
// one ordered body.
type compiler struct {
	varReg map[string]int32
	bound  map[string]bool
	// query compiles a query body, which must not grow the intern table:
	// ground terms are looked up instead of interned (one never interned
	// gets unboundID, which no stored row holds, and its key goes to
	// missing), and every construct that would intern at run time fails
	// the compilation.
	query   bool
	missing []string
}

func (c *compiler) reg(name string) int32 {
	if r, ok := c.varReg[name]; ok {
		return r
	}
	r := int32(len(c.varReg))
	c.varReg[name] = r
	return r
}

// compileRule translates the ordered body of r into a register program,
// or returns nil when the body uses constructs the compiled fragment
// does not cover (the caller falls back to the interpreter).
func compileRule(r Rule, ordered []BodyElem, deltaIdx int) *cProg {
	c := &compiler{varReg: make(map[string]int32), bound: make(map[string]bool)}
	return c.compile(r, ordered, deltaIdx)
}

// compileQuery translates the ordered body of the query rule q, whose
// head arguments are its answer variables, into a program whose
// solutions cProg.query collects; nil when the body needs the
// interpreter or would intern a term. missing holds the keys of the
// constants compiled without an ID: the program is right only while
// none of them has one (PreparedQuery.Stale).
func compileQuery(q Rule, ordered []BodyElem) (p *cProg, missing []string) {
	c := &compiler{varReg: make(map[string]int32), bound: make(map[string]bool), query: true}
	return c.compile(q, ordered, -1), c.missing
}

func (c *compiler) compile(r Rule, ordered []BodyElem, deltaIdx int) *cProg {
	// Each op is compiled in place, into the program's own slot.
	ops := make([]cOp, len(ordered))
	for i, el := range ordered {
		l, ok := el.(Literal)
		if !ok {
			return nil // aggregates stay interpreted
		}
		if IsBuiltin(l.Pred, len(l.Args)) {
			// The interpreter evaluates builtins before looking at the
			// negation flag; mirror that by ignoring l.Neg here.
			ok = c.compileBuiltin(&ops[i], l)
		} else if l.Neg {
			ok = c.compileNeg(&ops[i], l)
		} else {
			ok = c.compileScan(&ops[i], l, i == deltaIdx)
		}
		if !ok {
			return nil
		}
	}
	head := make([]cBuild, len(r.Head.Args))
	for i, a := range r.Head.Args {
		hb := c.compileBuild(a)
		if hb == nil {
			return nil // head var not bound by the body: unsafe, bail
		}
		head[i] = *hb
	}
	return &cProg{
		headKey: r.Head.Key(),
		arity:   len(r.Head.Args),
		head:    head,
		ops:     ops,
		nRegs:   len(c.varReg),
		varReg:  c.varReg,
	}
}

// compileBuild translates a term whose variables are all bound into a
// builder; nil if some variable is unbound.
func (c *compiler) compileBuild(t term.Term) *cBuild {
	if t.IsVar() {
		if !c.bound[t.Name()] {
			return nil
		}
		return &cBuild{kind: bReg, reg: c.reg(t.Name())}
	}
	if t.IsGround() {
		return &cBuild{kind: bConst, id: c.constID(t), t: t}
	}
	args := make([]cBuild, len(t.Args()))
	for i, a := range t.Args() {
		ab := c.compileBuild(a)
		if ab == nil {
			return nil
		}
		args[i] = *ab
	}
	return &cBuild{kind: bComp, fn: t.Name(), args: args}
}

// constID is the ID of the ground term t: interned for a rule, looked
// up for a query, where a term never interned gets unboundID.
func (c *compiler) constID(t term.Term) uint32 {
	if !c.query {
		return internTerm(t)
	}
	key := t.Key()
	if id, ok := lookupKey(key); ok {
		return id
	}
	c.missing = append(c.missing, key)
	return unboundID
}

// boundBefore reports whether the variable v was bound before op, the
// literal being compiled, began binding its own variables.
func (c *compiler) boundBefore(v string, op *cOp) bool {
	return c.bound[v] && !slices.Contains(op.binds, c.varReg[v])
}

// interns reports whether internBuild would intern to resolve b: a
// composed term, or a constant a query left without an ID.
func (b *cBuild) interns() bool {
	return b.kind == bComp || b.kind == bConst && b.id == unboundID
}

// compileArith translates an arithmetic expression tree; nil when the
// tree contains anything EvalArith would need the term form for (the
// caller then wraps the build form in an aBuild node, which reproduces
// EvalArith's runtime errors exactly).
func (c *compiler) compileArith(t term.Term) *cArith {
	switch t.Kind() {
	case term.KindInt, term.KindFloat:
		return &cArith{kind: aConst, val: t}
	case term.KindVar:
		if !c.bound[t.Name()] {
			return nil
		}
		return &cArith{kind: aReg, reg: c.reg(t.Name())}
	case term.KindCompound:
		name, args := t.Name(), t.Args()
		if (name == "neg" || name == "abs") && len(args) == 1 {
			l := c.compileArith(args[0])
			if l == nil {
				return nil
			}
			return &cArith{kind: aOp1, op: name, l: l}
		}
		if isArithFunctor(name) && name != "neg" && name != "abs" && len(args) == 2 {
			l := c.compileArith(args[0])
			r := c.compileArith(args[1])
			if l == nil || r == nil {
				return nil
			}
			return &cArith{kind: aOp2, op: name, l: l, r: r}
		}
	}
	return nil
}

// arithFor returns an evaluator for t (all vars bound): the compiled
// tree when possible, otherwise build-then-EvalArith.
func (c *compiler) arithFor(t term.Term) *cArith {
	if a := c.compileArith(t); a != nil {
		return a
	}
	b := c.compileBuild(t)
	if b == nil {
		return nil
	}
	return &cArith{kind: aBuild, b: *b}
}

func (c *compiler) compileSide(t term.Term) *cSide {
	if t.IsVar() {
		if !c.bound[t.Name()] {
			return nil
		}
		return &cSide{kind: sReg, reg: c.reg(t.Name())}
	}
	if t.IsGround() {
		s := &cSide{kind: sConst, t: t, isAr: isArithExpr(t, emptySubst)}
		if s.isAr {
			if s.arith = c.arithFor(t); s.arith == nil {
				return nil
			}
		}
		return s
	}
	b := c.compileBuild(t)
	if b == nil {
		return nil
	}
	s := &cSide{kind: sDyn, b: *b, isAr: t.Kind() == term.KindCompound && isArithFunctor(t.Name())}
	if s.isAr {
		if s.arith = c.arithFor(t); s.arith == nil {
			return nil
		}
	}
	return s
}

// compileBuiltin compiles the builtin literal l into op, reporting
// false when it needs the interpreter.
func (c *compiler) compileBuiltin(op *cOp, l Literal) bool {
	a, b := l.Args[0], l.Args[1]
	switch l.Pred {
	case BuiltinUnify:
		ab := c.compileBuild(a)
		bb := c.compileBuild(b)
		if c.query && (ab != nil && ab.interns() || bb != nil && bb.interns()) {
			return false
		}
		switch {
		case ab != nil && bb != nil:
			*op = cOp{kind: opEq, la: *ab, ra: *bb}
			return true
		case bb != nil:
			return c.compileUnifyPat(op, a, *bb)
		case ab != nil:
			return c.compileUnifyPat(op, b, *ab)
		}
		return false
	case BuiltinNotEq:
		ab := c.compileBuild(a)
		bb := c.compileBuild(b)
		if ab == nil || bb == nil || c.query && (ab.interns() || bb.interns()) {
			return false
		}
		*op = cOp{kind: opNeq, la: *ab, ra: *bb}
		return true
	case BuiltinIs:
		if c.query {
			return false // the computed value is interned
		}
		ar := c.arithFor(b)
		if ar == nil {
			return false
		}
		*op = cOp{kind: opIs, arith: ar, dstReg: -1}
		switch {
		case a.IsVar():
			op.dstReg = c.reg(a.Name())
			op.dstBound = c.bound[a.Name()]
			if !op.dstBound {
				c.bound[a.Name()] = true
				op.binds = []int32{op.dstReg}
			}
		case a.IsGround():
			op.dstID = internTerm(a)
		default:
			return false // compound lhs: leave to the interpreter
		}
		return true
	case BuiltinLess, BuiltinLessEq, BuiltinGrtr, BuiltinGrtrEq:
		ls := c.compileSide(a)
		rs := c.compileSide(b)
		if ls == nil || rs == nil {
			return false
		}
		*op = cOp{kind: opCmp, cmp: l.Pred, lhs: *ls, rhs: *rs}
		return true
	}
	return false
}

// compileUnifyPat compiles X = t / pat = t where the pattern side has
// unbound variables and val is fully bound.
func (c *compiler) compileUnifyPat(op *cOp, pat term.Term, val cBuild) bool {
	if c.query && !pat.IsVar() {
		return false // matchPat interns the value's arguments
	}
	*op = cOp{kind: opUnify, pat: pat, ra: val}
	for _, v := range pat.Vars(nil) {
		r := c.reg(v)
		if !c.bound[v] {
			c.bound[v] = true
			op.binds = append(op.binds, r)
		}
	}
	return true
}

func (c *compiler) compileNeg(op *cOp, l Literal) bool {
	*op = cOp{kind: opNeg, relKey: l.Key()}
	op.nargs = make([]cBuild, len(l.Args))
	for i, a := range l.Args {
		ab := c.compileBuild(a)
		if ab == nil {
			return false // unbound var in negation: unsafe, bail
		}
		op.nargs[i] = *ab
	}
	return true
}

func (c *compiler) compileScan(op *cOp, l Literal, isDelta bool) bool {
	*op = cOp{kind: opScan, relKey: l.Key(), delta: isDelta}
	op.args = make([]cArg, len(l.Args))
	for i, a := range l.Args {
		arg := &op.args[i]
		switch {
		case a.IsVar():
			name := a.Name()
			arg.reg = c.reg(name)
			if c.bound[name] {
				arg.kind = argCheck
				arg.pre = c.boundBefore(name, op)
			} else {
				arg.kind = argBind
				c.bound[name] = true
				op.binds = append(op.binds, arg.reg)
			}
		case a.IsGround():
			arg.kind = argConst
			arg.id = c.constID(a)
		default:
			allPre := true
			for _, v := range a.Vars(nil) {
				if !c.boundBefore(v, op) {
					allPre = false
				}
			}
			if allPre {
				arg.kind = argBuild
				arg.b = *c.compileBuild(a)
			} else {
				if c.query {
					return false // matchPat interns the row term's arguments
				}
				arg.kind = argPat
				arg.pat = a
				for _, v := range a.Vars(nil) {
					r := c.reg(v)
					if !c.bound[v] {
						c.bound[v] = true
						op.binds = append(op.binds, r)
					}
				}
			}
		}
		// Probe candidacy mirrors the interpreter: an argument that is
		// ground before the literal's own matching starts.
		switch arg.kind {
		case argConst, argBuild:
			op.probes = append(op.probes, i)
		case argCheck:
			if arg.pre {
				op.probes = append(op.probes, i)
			}
		}
	}
	return true
}

// --- execution ---

// cExec runs one compiled program against the snapshot held by ev.
type cExec struct {
	ev      *evalCtx
	prog    *cProg
	regs    []uint32
	scratch []uint32   // head ID staging
	answers *answerSet // a query's solutions; nil for a rule
}

// run enumerates all solutions of the compiled body, queueing derived
// facts on ev exactly as the interpreted path does.
func (p *cProg) run(ev *evalCtx) error {
	return p.exec(ev, nil).step(0)
}

// query enumerates all solutions of a compiled query body into set.
func (p *cProg) query(ev *evalCtx, set *answerSet) error {
	return p.exec(ev, set).step(0)
}

func (p *cProg) exec(ev *evalCtx, set *answerSet) *cExec {
	ex := &cExec{ev: ev, prog: p, answers: set}
	ex.regs = make([]uint32, p.nRegs)
	for i := range ex.regs {
		ex.regs[i] = unboundID
	}
	ex.scratch = make([]uint32, p.arity)
	return ex
}

func (ex *cExec) step(i int) error {
	if i == len(ex.prog.ops) {
		return ex.emit()
	}
	op := &ex.prog.ops[i]
	switch op.kind {
	case opScan:
		return ex.scan(op, i)
	case opNeg:
		var kb [16]uint32
		row := kb[:0]
		for j := range op.nargs {
			id, ok := ex.resolveID(&op.nargs[j])
			if !ok {
				// An argument term that was never interned cannot be
				// stored: the negation holds.
				return ex.step(i + 1)
			}
			row = append(row, id)
		}
		if !ex.ev.negCtx.ContainsKeyIDs(op.relKey, row) {
			return ex.step(i + 1)
		}
		return nil
	case opEq:
		if ex.internBuild(&op.la) == ex.internBuild(&op.ra) {
			return ex.step(i + 1)
		}
		return nil
	case opNeq:
		if ex.internBuild(&op.la) != ex.internBuild(&op.ra) {
			return ex.step(i + 1)
		}
		return nil
	case opUnify:
		id := ex.internBuild(&op.ra)
		ok := ex.matchPat(op.pat, termOf(id), id)
		var err error
		if ok {
			err = ex.step(i + 1)
		}
		ex.reset(op.binds)
		return err
	case opIs:
		v, err := ex.evalArith(op.arith)
		if err != nil {
			return err
		}
		id := internTerm(v)
		switch {
		case op.dstReg < 0:
			if id == op.dstID {
				return ex.step(i + 1)
			}
			return nil
		case op.dstBound:
			if ex.regs[op.dstReg] == id {
				return ex.step(i + 1)
			}
			return nil
		default:
			ex.regs[op.dstReg] = id
			err := ex.step(i + 1)
			ex.regs[op.dstReg] = unboundID
			return err
		}
	case opCmp:
		cv, err := ex.compare(&op.lhs, &op.rhs)
		if err != nil {
			return err
		}
		ok := false
		switch op.cmp {
		case BuiltinLess:
			ok = cv < 0
		case BuiltinLessEq:
			ok = cv <= 0
		case BuiltinGrtr:
			ok = cv > 0
		case BuiltinGrtrEq:
			ok = cv >= 0
		}
		if ok {
			return ex.step(i + 1)
		}
		return nil
	}
	return nil
}

func (ex *cExec) scan(op *cOp, i int) error {
	src := ex.ev.store
	if op.delta {
		src = ex.ev.delta
	}
	rel := src.Rel(op.relKey)
	if rel == nil || rel.Len() == 0 {
		return nil
	}
	// Resolve argBuild terms once per scan; a term that was never
	// interned matches no stored row. The buffer is per-call (not on
	// ex) because nested scans recurse through step while this one is
	// still iterating rows.
	var bbuf [8]uint32
	var buildIDs []uint32
	for j := range op.args {
		if op.args[j].kind == argBuild {
			if buildIDs == nil {
				if len(op.args) <= len(bbuf) {
					buildIDs = bbuf[:len(op.args)]
				} else {
					buildIDs = make([]uint32, len(op.args))
				}
			}
			t := ex.buildTerm(&op.args[j].b)
			id, ok := lookupID(t)
			if !ok {
				return nil
			}
			buildIDs[j] = id
		}
	}
	// Pick the most selective probe, same rule as the interpreter:
	// smallest bucket wins, first position wins ties, zero short-circuits.
	bestCount := -1
	var best rowSet
	for _, pos := range op.probes {
		var id uint32
		switch op.args[pos].kind {
		case argConst:
			id = op.args[pos].id
		case argCheck:
			id = ex.regs[op.args[pos].reg]
		case argBuild:
			id = buildIDs[pos]
		}
		sel := rel.probe(pos, id)
		if n := sel.size(); bestCount < 0 || n < bestCount {
			bestCount, best = n, sel
			if n == 0 {
				break
			}
		}
	}
	matchRow := func(row []uint32) error {
		for j := range op.args {
			a := &op.args[j]
			switch a.kind {
			case argConst:
				if row[j] != a.id {
					ex.reset(op.binds)
					return nil
				}
			case argCheck:
				if row[j] != ex.regs[a.reg] {
					ex.reset(op.binds)
					return nil
				}
			case argBind:
				ex.regs[a.reg] = row[j]
			case argBuild:
				if row[j] != buildIDs[j] {
					ex.reset(op.binds)
					return nil
				}
			case argPat:
				if !ex.matchPat(a.pat, termOf(row[j]), row[j]) {
					ex.reset(op.binds)
					return nil
				}
			}
		}
		err := ex.step(i + 1)
		ex.reset(op.binds)
		return err
	}
	if bestCount >= 0 {
		return rel.eachAt(best, matchRow)
	}
	return rel.each(matchRow)
}

func (ex *cExec) reset(binds []int32) {
	for _, r := range binds {
		ex.regs[r] = unboundID
	}
}

// matchPat structurally matches the pattern against the ground term g
// (whose interned ID is gid when known, else unboundID), binding the
// registers of unbound pattern variables.
func (ex *cExec) matchPat(p term.Term, g term.Term, gid uint32) bool {
	if p.IsVar() {
		r := ex.prog.varReg[p.Name()]
		if gid == unboundID {
			gid = internTerm(g)
		}
		if ex.regs[r] == unboundID {
			ex.regs[r] = gid
			return true
		}
		return ex.regs[r] == gid
	}
	if p.Kind() == term.KindCompound && !p.IsGround() {
		if g.Kind() != term.KindCompound || g.Name() != p.Name() || g.Arity() != p.Arity() {
			return false
		}
		for k := range p.Args() {
			if !ex.matchPat(p.Args()[k], g.Args()[k], unboundID) {
				return false
			}
		}
		return true
	}
	return p.Equal(g)
}

func (ex *cExec) buildTerm(b *cBuild) term.Term {
	switch b.kind {
	case bConst:
		return b.t
	case bReg:
		return termOf(ex.regs[b.reg])
	}
	args := make([]term.Term, len(b.args))
	for i := range b.args {
		args[i] = ex.buildTerm(&b.args[i])
	}
	return term.Comp(b.fn, args...)
}

// internBuild resolves a builder to an interned ID, interning composed
// terms on first sight.
func (ex *cExec) internBuild(b *cBuild) uint32 {
	switch b.kind {
	case bConst:
		return b.id
	case bReg:
		return ex.regs[b.reg]
	}
	return internTerm(ex.buildTerm(b))
}

// resolveID is internBuild without the side effect: composed terms that
// were never interned report false instead of being assigned an ID.
func (ex *cExec) resolveID(b *cBuild) (uint32, bool) {
	switch b.kind {
	case bConst:
		return b.id, b.id != unboundID
	case bReg:
		return ex.regs[b.reg], true
	}
	return lookupID(ex.buildTerm(b))
}

func (ex *cExec) evalArith(a *cArith) (term.Term, error) {
	switch a.kind {
	case aConst:
		return a.val, nil
	case aReg:
		return EvalArith(termOf(ex.regs[a.reg]), emptySubst)
	case aOp1:
		v, err := ex.evalArith(a.l)
		if err != nil {
			return term.Term{}, err
		}
		return arithUnary(a.op, v)
	case aOp2:
		l, err := ex.evalArith(a.l)
		if err != nil {
			return term.Term{}, err
		}
		r, err := ex.evalArith(a.r)
		if err != nil {
			return term.Term{}, err
		}
		return arithBinary(a.op, l, r)
	}
	return EvalArith(ex.buildTerm(&a.b), emptySubst)
}

func (ex *cExec) sideIsArith(s *cSide) bool {
	if s.kind != sReg {
		return s.isAr
	}
	t := termOf(ex.regs[s.reg])
	switch t.Kind() {
	case term.KindInt, term.KindFloat:
		return true
	case term.KindCompound:
		return isArithFunctor(t.Name())
	}
	return false
}

func (ex *cExec) sideTerm(s *cSide) term.Term {
	switch s.kind {
	case sConst:
		return s.t
	case sReg:
		return termOf(ex.regs[s.reg])
	}
	return ex.buildTerm(&s.b)
}

// compare mirrors compareArgs: numeric when both sides are arithmetic
// expressions, standard term order otherwise.
func (ex *cExec) compare(l, r *cSide) (int, error) {
	if ex.sideIsArith(l) && ex.sideIsArith(r) {
		av, err := ex.sideArith(l)
		if err != nil {
			return 0, err
		}
		bv, err := ex.sideArith(r)
		if err != nil {
			return 0, err
		}
		af, _ := av.Numeric()
		bf, _ := bv.Numeric()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	}
	return ex.sideTerm(l).Compare(ex.sideTerm(r)), nil
}

func (ex *cExec) sideArith(s *cSide) (term.Term, error) {
	if s.kind == sReg {
		return EvalArith(termOf(ex.regs[s.reg]), emptySubst)
	}
	return ex.evalArith(s.arith)
}

// emit instantiates the head from the registers and queues the fact,
// or, for a query, offers the answer row to its set. A query row is
// never dropped for its depth: the interpreted query keeps it too.
func (ex *cExec) emit() error {
	ev := ex.ev
	if err := ev.spendGas(); err != nil {
		return err
	}
	if ex.answers != nil {
		for i := range ex.prog.head {
			ex.scratch[i] = ex.regs[ex.prog.head[i].reg]
		}
		ex.answers.add(ex.scratch)
		return nil
	}
	maxDepth := int32(ev.opts.MaxTermDepth)
	for i := range ex.prog.head {
		id := ex.internBuild(&ex.prog.head[i])
		if maxDepth > 0 && depthOf(id) > maxDepth {
			ev.depthDrops++
			return nil
		}
		ex.scratch[i] = id
	}
	ids := ev.allocIDs(ex.prog.arity)
	copy(ids, ex.scratch)
	ev.firings++
	ev.newFacts = append(ev.newFacts, derivedFact{key: ex.prog.headKey, ids: ids})
	return nil
}
