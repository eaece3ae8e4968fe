package datalog

// Query answering: a conjunctive query body is prepared once
// (PrepareQuery: ordered, and compiled, like a rule body, into a
// register program over interned IDs, compile.go) and the
// PreparedQuery answers over any Result, from any number of goroutines
// (QueryPrepared). Its solutions are collected as ID rows in an
// answerSet — distinct rows in one flat arena, deduplicated as they
// arrive — which is sorted once, at the end, into rows of Cells: each
// cell points at the term the intern table already holds, so an answer
// costs 8 bytes a cell, not a copy of every term, and the arena, the
// slot table and the sort order go back to a pool for the next query.
// A query never interns: its constants are looked up, and a body whose
// evaluation would have to intern a term runs on the interpreter
// instead, as does every body under Options.Interpret. A constant with
// no ID when the query was prepared matches no row; once it is interned
// the PreparedQuery is stale and is compiled again. The interpreter
// collects into the same answerSet; a value it computes that the table
// lacks (an is result, a compound built by =, an aggregate) is kept in
// the answer's own scratch slab, under a per-answer ID, and its cells
// point there.

import (
	"context"
	"slices"
	"sync"

	"modelmed/internal/term"
)

// Cell is one value of an answer row. It points at the term the intern
// table holds (or, for a value no relation holds, at the answer's own
// scratch slab), so a cell is 8 bytes however large its term. Cells are
// read-only: nothing can be written through one, and the term a cell
// points at never changes, so a row stays valid for as long as it is
// held, across later deltas and queries.
type Cell struct{ t *term.Term }

// Term returns a copy of the cell's value; as with every term, its
// Args must not be written.
func (c Cell) Term() term.Term { return *c.t }

// Append appends the cell's value in the rule language's syntax, as
// term.Term.Append does.
func (c Cell) Append(dst []byte) []byte { return c.t.Append(dst) }

// String renders the cell's value in the rule language's syntax.
func (c Cell) String() string { return c.t.String() }

// CellOf returns a cell over its own copy of t, for a row composed
// outside a query, such as a test's expected answer.
func CellOf(t term.Term) Cell { return Cell{&t} }

// RenderRows renders answer rows as strings, each cell as String does
// and every cell in one slab: the one rendering of rows as strings, so
// rows rendered anywhere compare and dedupe textually.
func RenderRows(rows [][]Cell) [][]string {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	slab := make([]string, n)
	out := make([][]string, len(rows))
	for i, row := range rows {
		cells := slab[:len(row):len(row)]
		slab = slab[len(row):]
		for j, c := range row {
			cells[j] = c.String()
		}
		out[i] = cells
	}
	return out
}

// QueryStats describes how a query was answered.
type QueryStats struct {
	// Compiled reports that the body ran as a compiled register
	// program; false means the interpreter answered it.
	Compiled bool
	// Solutions counts the body's solutions before duplicate rows were
	// removed.
	Solutions int
}

// Query evaluates a conjunctive query body against the result store and
// returns the distinct bindings of vars, sorted. The body may contain
// negation, builtins and aggregates; it must be safe.
func (r *Result) Query(body []BodyElem, vars []string) ([][]Cell, error) {
	return r.QueryCtx(context.Background(), body, vars)
}

// QueryCtx is Query under the caller's context and the producing
// engine's Limits: each enumerated solution (pre-deduplication) spends
// one unit of the fact budget, and the context is checked at the same
// stride, so a cross-product query body is stopped cooperatively
// instead of enumerating to completion.
func (r *Result) QueryCtx(ctx context.Context, body []BodyElem, vars []string) ([][]Cell, error) {
	rows, _, err := r.QueryWithStats(ctx, body, vars)
	return rows, err
}

// QueryWithStats is QueryCtx that also reports which evaluator answered
// and how many solutions it enumerated: PrepareQuery, then
// QueryPrepared.
func (r *Result) QueryWithStats(ctx context.Context, body []BodyElem, vars []string) ([][]Cell, QueryStats, error) {
	p, err := PrepareQuery(body, vars)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return r.QueryPrepared(ctx, p)
}

// PreparedQuery is a query body made ready to answer: ordered, and
// compiled unless it needs the interpreter. It depends on the body and
// vars alone, not on a Result, so one PreparedQuery answers over any
// Result, and it is never written after PrepareQuery returns, so any
// number of goroutines may run it at once.
type PreparedQuery struct {
	q       Rule // query?(Vars...) :- Body
	ordered []BodyElem
	prog    *cProg // nil: the interpreter answers
	// missing holds the keys of the constants prog was compiled with
	// while they had no ID; prog matches no row on them, which stops
	// being right once one is interned.
	missing []string
}

// PrepareQuery orders and compiles body as a query for the bindings of
// vars. body and vars are only read, and must not be written while the
// PreparedQuery is in use.
func PrepareQuery(body []BodyElem, vars []string) (*PreparedQuery, error) {
	headArgs := make([]term.Term, len(vars))
	for i, v := range vars {
		headArgs[i] = term.Var(v)
	}
	p := &PreparedQuery{q: Rule{Head: Lit("query?", headArgs...), Body: body}}
	var err error
	if p.ordered, err = OrderBody(p.q); err != nil {
		return nil, err
	}
	p.prog, p.missing = compileQuery(p.q, p.ordered)
	return p, nil
}

// Stale reports whether a constant p was compiled without has been
// interned since, so that p's program would miss the rows now holding
// it. QueryPrepared compiles such a query again for its own run; a
// holder of p that runs it often prepares it again.
func (p *PreparedQuery) Stale() bool {
	for _, key := range p.missing {
		if _, ok := lookupKey(key); ok {
			return true
		}
	}
	return false
}

// QueryPrepared answers p over r, as QueryWithStats answers p's body:
// on the interpreter when the producing engine's Options.Interpret
// says so or p did not compile, else on p's program (compiled again
// for this run if p is stale).
func (r *Result) QueryPrepared(ctx context.Context, p *PreparedQuery) ([][]Cell, QueryStats, error) {
	var lims Limits
	if r.eng != nil {
		lims = r.eng.opts.Limits
	}
	ev := &evalCtx{
		store:  r.Store,
		negCtx: r.Store,
		opts:   &Options{MaxTermDepth: 64, MaxIterations: 1},
		lim:    newLimiter(ctx, lims),
	}
	set := newAnswerSet(len(p.q.Head.Args))
	defer set.release()
	st := QueryStats{}
	var err error
	if r.eng == nil || !r.eng.opts.Interpret {
		prog := p.prog
		if p.Stale() {
			prog, _ = compileQuery(p.q, p.ordered)
		}
		if prog != nil {
			err = prog.query(ev, set)
			st.Compiled = true
		}
	}
	if !st.Compiled {
		err = ev.interpretQuery(p.ordered, p.q.Head.Args, set)
	}
	if err != nil {
		return nil, QueryStats{}, err
	}
	st.Solutions = set.solutions
	return set.rows(), st, nil
}

// interpretQuery answers an ordered query body on the interpreter,
// offering each solution's values of vars to set. It interns nothing:
// a value the table lacks goes to set's scratch slab.
func (ev *evalCtx) interpretQuery(ordered []BodyElem, vars []term.Term, set *answerSet) error {
	row := make([]uint32, len(vars))
	return ev.match(ordered, 0, -1, term.NewSubst(), func(s *term.Subst) error {
		if err := ev.spendGas(); err != nil {
			return err
		}
		for i, v := range vars {
			row[i] = set.idOf(s.Apply(v))
		}
		set.add(row)
		return nil
	})
}

// answerSet is the set of distinct ID rows a query found: the rows live
// back to back in one arena, and an open-addressed table of row numbers
// finds a duplicate without a key string or an allocation per solution,
// so its memory follows the distinct rows. The arena, the table and the
// sort order are scratch, drawn from answerScratchPool and returned to
// it by release once rows has copied the IDs into cells.
type answerSet struct {
	width int
	*answerScratch
	n         int // distinct rows
	solutions int // rows offered, duplicates included

	// scratch holds the interpreted values the intern table lacks; the
	// i-th has the per-answer ID scratchTop-i, which scratchIDs finds
	// by term key.
	scratch    []term.Term
	scratchIDs map[string]uint32
}

// answerScratch is the part of an answerSet no answer keeps.
type answerScratch struct {
	arena []uint32 // distinct rows, row-major
	slots []int32  // row number + 1; 0 marks an empty slot
	order []int32  // row numbers, sorted by rows
}

// answerScratchPool holds the scratch of finished answer sets. A query
// takes it and puts it back on its own goroutine, with no wait between,
// so the Put fills the slot of the P the next query on it takes from.
var answerScratchPool = sync.Pool{New: func() any { return new(answerScratch) }}

// maxPooledScratch is the most elements of one scratch buffer the pool
// keeps: a buffer an answer of over a million cells grew is dropped, so
// one large answer does not pin its size for good.
const maxPooledScratch = 1 << 20

func newAnswerSet(width int) *answerSet {
	sc := answerScratchPool.Get().(*answerScratch)
	sc.arena, sc.slots, sc.order = sc.arena[:0], sc.slots[:0], sc.order[:0]
	return &answerSet{width: width, answerScratch: sc}
}

// release returns the set's scratch to the pool; the set is unusable
// after it. The cells of rows do not point into the scratch.
func (s *answerSet) release() {
	sc := s.answerScratch
	s.answerScratch = nil
	if cap(sc.arena) > maxPooledScratch {
		sc.arena = nil
	}
	if cap(sc.slots) > maxPooledScratch {
		sc.slots = nil
	}
	if cap(sc.order) > maxPooledScratch {
		sc.order = nil
	}
	answerScratchPool.Put(sc)
}

// scratchTop is the highest scratch ID; scratch IDs count down from it,
// clear of the interned IDs counting up from 0 for the same reason
// unboundID is.
const scratchTop = unboundID - 1

func (s *answerSet) row(i int) []uint32 { return s.arena[i*s.width : (i+1)*s.width] }

// idOf returns t's interned ID, or else its scratch ID, adding it to
// the scratch slab if it is new.
func (s *answerSet) idOf(t term.Term) uint32 {
	if id, ok := lookupID(t); ok {
		return id
	}
	id, ok := s.scratchIDs[t.Key()]
	if !ok {
		if s.scratchIDs == nil {
			s.scratchIDs = make(map[string]uint32)
		}
		id = scratchTop - uint32(len(s.scratch))
		s.scratch = append(s.scratch, t)
		s.scratchIDs[t.Key()] = id
	}
	return id
}

// cell returns the cell of an ID of this set's rows.
func (s *answerSet) cell(id uint32) Cell {
	if i := scratchTop - id; i < uint32(len(s.scratch)) {
		return Cell{&s.scratch[i]}
	}
	return Cell{termAt(id)}
}

// add offers one solution's row; the set copies it if it is new.
func (s *answerSet) add(row []uint32) {
	s.solutions++
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	for i := hashIDs(row) & mask; ; i = (i + 1) & mask {
		j := s.slots[i]
		if j == 0 {
			s.slots[i] = int32(s.n + 1)
			s.arena = append(s.arena, row...)
			s.n++
			return
		}
		if slices.Equal(s.row(int(j-1)), row) {
			return
		}
	}
}

// grow doubles the slot table, in place when its capacity allows, and
// re-inserts every row.
func (s *answerSet) grow() {
	n := max(16, 2*len(s.slots))
	if cap(s.slots) >= n {
		s.slots = s.slots[:n]
		clear(s.slots)
	} else {
		s.slots = make([]int32, n)
	}
	mask := len(s.slots) - 1
	for r := 0; r < s.n; r++ {
		i := hashIDs(s.row(r)) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(r + 1)
	}
}

func hashIDs(row []uint32) int {
	h := uint64(len(row))
	for _, id := range row {
		h = (h ^ uint64(id)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return int(h >> 1)
}

// rows materializes the set sorted by term.Compare column by column;
// rows that compare equal in every column (only distinct terms such as
// 0.0 and -0.0 can) are ordered by ID. All cells share one slab.
func (s *answerSet) rows() [][]Cell {
	if s.n == 0 {
		return nil
	}
	w := s.width
	cells := make([]Cell, s.n*w)
	for i, id := range s.arena {
		cells[i] = s.cell(id)
	}
	order := s.order[:0]
	for i := range s.n {
		order = append(order, int32(i))
	}
	s.order = order
	slices.SortFunc(order, func(a, b int32) int {
		ia, ib := s.row(int(a)), s.row(int(b))
		for k := range ia {
			// Equal IDs are equal terms.
			if ia[k] == ib[k] {
				continue
			}
			if c := cells[int(a)*w+k].t.Compare(*cells[int(b)*w+k].t); c != 0 {
				return c
			}
		}
		return slices.Compare(ia, ib)
	})
	out := make([][]Cell, s.n)
	for k, i := range order {
		lo := int(i) * w
		out[k] = cells[lo : lo+w : lo+w]
	}
	return out
}
