package datalog

// Query answering: a conjunctive query body is compiled, like a rule
// body, into a register program over interned IDs (compile.go), and its
// solutions are collected as ID rows in an answerSet — distinct rows in
// one flat arena, deduplicated as they arrive — which is sorted and
// turned into terms once, at the end. A query never interns: its
// constants are looked up, and a body whose evaluation would have to
// intern a term runs on the interpreter instead, as does every body
// under Options.Interpret.

import (
	"context"
	"slices"
	"sort"

	"modelmed/internal/term"
)

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
func (r *Result) Query(body []BodyElem, vars []string) ([][]term.Term, error) {
	return r.QueryCtx(context.Background(), body, vars)
}

// QueryCtx is Query under the caller's context and the producing
// engine's Limits: each enumerated solution (pre-deduplication) spends
// one unit of the fact budget, and the context is checked at the same
// stride, so a cross-product query body is stopped cooperatively
// instead of enumerating to completion.
func (r *Result) QueryCtx(ctx context.Context, body []BodyElem, vars []string) ([][]term.Term, error) {
	rows, _, err := r.QueryWithStats(ctx, body, vars)
	return rows, err
}

// QueryWithStats is QueryCtx that also reports which evaluator answered
// and how many solutions it enumerated.
func (r *Result) QueryWithStats(ctx context.Context, body []BodyElem, vars []string) ([][]term.Term, QueryStats, error) {
	headArgs := make([]term.Term, len(vars))
	for i, v := range vars {
		headArgs[i] = term.Var(v)
	}
	q := Rule{Head: Lit("query?", headArgs...), Body: body}
	ordered, err := OrderBody(q)
	if err != nil {
		return nil, QueryStats{}, err
	}
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
	if r.eng == nil || !r.eng.opts.Interpret {
		if p := compileQuery(q, ordered); p != nil {
			set := &answerSet{width: len(vars)}
			if err := p.query(ev, set); err != nil {
				return nil, QueryStats{}, err
			}
			return set.rows(), QueryStats{Compiled: true, Solutions: set.solutions}, nil
		}
	}
	rows, solutions, err := ev.interpretQuery(ordered, vars)
	return rows, QueryStats{Solutions: solutions}, err
}

// interpretQuery answers an ordered query body on the interpreter.
func (ev *evalCtx) interpretQuery(ordered []BodyElem, vars []string) ([][]term.Term, int, error) {
	seen := make(map[string]struct{})
	var out [][]term.Term
	solutions := 0
	s := term.NewSubst()
	err := ev.match(ordered, 0, -1, s, func(s *term.Subst) error {
		if err := ev.spendGas(); err != nil {
			return err
		}
		solutions++
		row := make([]term.Term, len(vars))
		var key string
		for i, v := range vars {
			row[i] = s.Apply(term.Var(v))
			key += row[i].Key()
		}
		if _, dup := seen[key]; !dup {
			seen[key] = struct{}{}
			out = append(out, row)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if c := out[i][k].Compare(out[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out, solutions, nil
}

// answerSet is the set of distinct ID rows a compiled query found: the
// rows live back to back in one arena, and an open-addressed table of
// row numbers finds a duplicate without a key string or an allocation
// per solution, so its memory follows the distinct rows.
type answerSet struct {
	width     int
	arena     []uint32 // distinct rows, row-major
	slots     []int32  // row number + 1; 0 marks an empty slot
	n         int      // distinct rows
	solutions int      // rows offered, duplicates included
}

func (s *answerSet) row(i int) []uint32 { return s.arena[i*s.width : (i+1)*s.width] }

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

// grow doubles the slot table and re-inserts every row.
func (s *answerSet) grow() {
	s.slots = make([]int32, max(16, 2*len(s.slots)))
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

// rows materializes the set sorted by term.Compare column by column, the
// interpreter's order; rows that compare equal in every column (only
// distinct terms such as 0.0 and -0.0 can) are ordered by ID. All
// cells share one slab.
func (s *answerSet) rows() [][]term.Term {
	if s.n == 0 {
		return nil
	}
	w := s.width
	cells := make([]term.Term, s.n*w)
	for i, id := range s.arena {
		cells[i] = termOf(id)
	}
	order := make([]int32, s.n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ia, ib := s.row(int(a)), s.row(int(b))
		for k := range ia {
			// Equal IDs are equal terms.
			if ia[k] == ib[k] {
				continue
			}
			if c := cells[int(a)*w+k].Compare(cells[int(b)*w+k]); c != 0 {
				return c
			}
		}
		return slices.Compare(ia, ib)
	})
	out := make([][]term.Term, s.n)
	for k, i := range order {
		lo := int(i) * w
		out[k] = cells[lo : lo+w : lo+w]
	}
	return out
}
