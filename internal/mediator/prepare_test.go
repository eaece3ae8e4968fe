package mediator

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/parser"
	"modelmed/internal/sources"
)

// TestPrepareCacheIsBounded: twice maxPrepared distinct texts leave at
// most maxPrepared prepared queries, and every answer, including one
// for a text whose entry a clear dropped, is the unprepared query's;
// the same text under other vars is another query.
func TestPrepareCacheIsBounded(t *testing.T) {
	m := newNeuroMediator(t, 30, 60, 20)
	res, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want := func(q string, vars []string) [][]string {
		body, _, err := parser.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := res.QueryWithStats(context.Background(), body, vars)
		if err != nil {
			t.Fatal(err)
		}
		return datalog.RenderRows(rows)
	}
	check := func(i int) {
		q := fmt.Sprintf("src_obj('NCMIR', O%d, C)", i)
		ans, err := m.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		vars := []string{fmt.Sprintf("O%d", i), "C"}
		if !slices.Equal(ans.Vars, vars) {
			t.Fatalf("%s: vars %v, want %v", q, ans.Vars, vars)
		}
		if got, w := datalog.RenderRows(ans.Rows), want(q, vars); len(w) == 0 || !slices.EqualFunc(got, w, slices.Equal) {
			t.Fatalf("%s: %d rows, want %d", q, len(got), len(w))
		}
	}
	for i := 0; i < 2*maxPrepared; i++ {
		check(i)
		if n := m.preparedLen(); n > maxPrepared {
			t.Fatalf("after %d texts the cache holds %d, want at most %d", i+1, n, maxPrepared)
		}
	}
	check(0)

	// The same text under other vars is another prepared query.
	const q = "src_obj(S, O, C)"
	byO, err := m.Query(q, "O")
	if err != nil {
		t.Fatal(err)
	}
	byC, err := m.Query(q, "C")
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(byO.Vars, byC.Vars) || slices.EqualFunc(byO.Rows, byC.Rows, slices.Equal) {
		t.Fatalf("vars O and C gave the same answer: %v %d rows, %v %d rows", byO.Vars, len(byO.Rows), byC.Vars, len(byC.Rows))
	}
	for _, a := range []*Answer{byO, byC} {
		if w := want(q, a.Vars); !slices.EqualFunc(datalog.RenderRows(a.Rows), w, slices.Equal) {
			t.Fatalf("vars %v: %d rows, want %d", a.Vars, len(a.Rows), len(w))
		}
	}

	// The cache keeps its own copy of the vars it was asked for, so a
	// caller may reuse its buffer.
	buf := []string{"S", "O"}
	if _, err := m.Query(q, buf...); err != nil {
		t.Fatal(err)
	}
	buf[0] = "C"
	again, err := m.Query(q, "S", "O")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again.Vars, []string{"S", "O"}) {
		t.Fatalf("vars S, O after the caller reused its buffer: %v", again.Vars)
	}
}

// TestPrepareCacheRetainsLittle: a text longer than maxPreparedKey is
// answered but not kept, and texts of the shape that retains the most
// per byte fill the cache to maxPreparedBytes and no further, so what
// the cache retains is bounded by its constants, not by what clients
// send. Not parallel: it reads the process's heap.
func TestPrepareCacheRetainsLittle(t *testing.T) {
	m := New(sources.NeuroDM(), nil)
	// text is a distinct text of about n bytes of one-variable
	// literals: once compiled, about 260 bytes retained a byte of text.
	text := func(i, n int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "q%d(A)", i)
		for b.Len() < n-6 {
			b.WriteString(", p(A)")
		}
		return b.String()
	}
	ask := func(q string) {
		t.Helper()
		ans, err := m.Query(q)
		if err != nil || len(ans.Rows) != 0 || !slices.Equal(ans.Vars, []string{"A"}) {
			t.Fatalf("%.20s...: %v", q, err)
		}
	}
	base := liveHeap()

	for i := 0; i < 8; i++ {
		ask(text(i, 2*maxPreparedKey))
	}
	if n := m.preparedLen(); n != 0 {
		t.Fatalf("%d texts over maxPreparedKey are cached", n)
	}
	// Cached, they would hold about 8 × 2 MB.
	if grown := liveHeap() - base; grown > 8<<20 {
		t.Fatalf("8 uncached texts of %d bytes left %d MB live", 2*maxPreparedKey, grown>>20)
	}

	full := maxPreparedBytes / maxPreparedKey
	for i := 0; i < full; i++ {
		ask(text(i, maxPreparedKey-8))
	}
	if n, b := m.preparedLen(), m.preparedBytes(); n != full || b > maxPreparedBytes {
		t.Fatalf("%d texts of %d bytes: the cache holds %d, %d bytes of text", full, maxPreparedKey-8, n, b)
	}
	grown := liveHeap() - base
	t.Logf("a full cache of %d-byte texts: %d entries, %d KB of text, %d MB live", maxPreparedKey-8, full, m.preparedBytes()>>10, grown>>20)
	if grown > 48<<20 {
		t.Fatalf("a full cache holds %d MB, want at most 48", grown>>20)
	}
	// One more clears it.
	ask(text(full, maxPreparedKey-8))
	if n := m.preparedLen(); n != 1 {
		t.Fatalf("an insert into a full cache left %d entries, want 1", n)
	}
	runtime.KeepAlive(m)
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// preparedLen returns the number of prepared queries m holds.
func (m *Mediator) preparedLen() int {
	m.prep.mu.Lock()
	defer m.prep.mu.Unlock()
	return len(m.prep.m)
}

// preparedBytes returns the bytes of text and vars m's prepared queries
// are keyed by.
func (m *Mediator) preparedBytes() int {
	m.prep.mu.Lock()
	defer m.prep.mu.Unlock()
	return m.prep.bytes
}
