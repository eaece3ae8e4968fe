package mediator

// Prepared queries: the work a query needs that depends on its text
// alone — parsing, ordering and compiling the body — is done once per
// text and vars, so a text seen before goes straight to evaluation.
// Prepare parses and caches, in a bounded per-mediator cache; ordering
// and compiling wait for the query's first answer, so a server that
// prepares a request before admitting it spends no more than a parse
// on it until it is admitted. Nothing in a Prepared depends on the
// program or the sources, so no write has to drop it; the one state it
// does depend on, the process-wide intern table, only grows, and
// datalog.PreparedQuery.Stale says when a constant it was compiled
// without has been interned since (see DESIGN.md, "Prepared queries").

import (
	"context"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"modelmed/internal/datalog"
	"modelmed/internal/parser"
)

// maxPrepared is the most prepared queries a mediator keeps, and
// maxPreparedBytes the most bytes of text and vars. An insert that
// would pass either clears the cache first, and the texts in use fill
// it again on their next request. What an entry retains grows with its
// text: up to about 260 bytes a byte of text once compiled (a text of
// one-variable literals, "q(A), p(A), p(A), ..."), so the bytes bound
// caps the cache at about 35 MB whatever texts clients send (see
// TestPrepareCacheRetainsLittle), and a cache of spine-sized texts,
// 40–200 bytes, reaches the count bound first.
const (
	maxPrepared      = 1024
	maxPreparedBytes = 128 << 10
)

// maxPreparedKey is the longest text and vars, in bytes, the cache
// keeps; a longer one is prepared for its request alone, so one long
// text does not clear the cache of everyone's short ones.
const maxPreparedKey = 4 << 10

// Prepared is a parsed query text, ordered and compiled on its first
// answer. It is shared: Body, Aux and Vars must not be written.
type Prepared struct {
	// Body and Aux are the parsed query: its body and the auxiliary
	// rules of its negated conjunctions.
	Body []datalog.BodyElem
	Aux  []datalog.Rule
	// Vars are the answer's columns: the vars asked for, or when none
	// were, the body's variables in order of first occurrence.
	Vars []string

	compiled atomic.Pointer[compiledQuery]
}

// compiledQuery is a Prepared's ordered and compiled body; q is nil
// when the body cannot be ordered (it is unsafe), and then err says
// why.
type compiledQuery struct {
	q   *datalog.PreparedQuery
	err error
}

// query returns p's ordered and compiled body, ordering and compiling
// it on p's first answer, and again once a constant it was compiled
// without has been interned. Two first answers at once may both
// compile; either result is right.
func (p *Prepared) query() (*datalog.PreparedQuery, error) {
	c := p.compiled.Load()
	if c == nil || (c.q != nil && c.q.Stale()) {
		c = new(compiledQuery)
		c.q, c.err = datalog.PrepareQuery(p.Body, p.Vars)
		p.compiled.Store(c)
	}
	return c.q, c.err
}

// prepared is a mediator's cache of prepared queries, keyed by text and
// vars. It has a lock of its own and never takes m.mu, so a read that
// prepares stays lock-free with respect to writers.
type prepared struct {
	mu    sync.Mutex
	m     map[string]*Prepared
	bytes int // the keys' length
}

// Prepare parses the query text q for the answer columns vars (empty:
// the body's variables), or returns the one prepared for the same text
// and vars before. Only a parse error is returned; a body that cannot
// be ordered returns its error when answered.
func (m *Mediator) Prepare(q string, vars []string) (*Prepared, error) {
	var kb [256]byte
	key := preparedKey(kb[:0], q, vars)
	c := &m.prep
	c.mu.Lock()
	p := c.m[string(key)]
	c.mu.Unlock()
	if p != nil {
		return p, nil
	}
	body, aux, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	p = prepareParsed(body, aux, vars)
	if len(key) > maxPreparedKey {
		return p, nil
	}
	c.mu.Lock()
	if c.m[string(key)] == nil {
		if len(c.m) >= maxPrepared || c.bytes+len(key) > maxPreparedBytes || c.m == nil {
			c.m, c.bytes = make(map[string]*Prepared), 0
		}
		c.m[string(key)] = p
		c.bytes += len(key)
	}
	c.mu.Unlock()
	return p, nil
}

// prepareParsed prepares a parsed query. vars is copied, so the caller
// may reuse it.
func prepareParsed(body []datalog.BodyElem, aux []datalog.Rule, vars []string) *Prepared {
	if len(vars) == 0 {
		vars = defaultVars(body)
	} else {
		vars = slices.Clone(vars)
	}
	return &Prepared{Body: body, Aux: aux, Vars: vars}
}

// preparedKey appends to dst the cache key of q and vars: each string
// after its length, so no two (q, vars) pairs share a key.
func preparedKey(dst []byte, q string, vars []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(q)))
	dst = append(dst, q...)
	for _, v := range vars {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// queryResult answers p over res. The auxiliary rules run in a layer
// over res that is dropped with the answer, so they never join the
// program and the read moves no state.
func queryResult(ctx context.Context, res *datalog.Result, p *Prepared) ([][]datalog.Cell, datalog.QueryStats, error) {
	if len(p.Aux) > 0 {
		var err error
		if res, err = res.Extend(ctx, p.Aux); err != nil {
			return nil, datalog.QueryStats{}, err
		}
	}
	q, err := p.query()
	if err != nil {
		return nil, datalog.QueryStats{}, err
	}
	return res.QueryPrepared(ctx, q)
}
