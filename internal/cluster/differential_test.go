package cluster

// The cluster correctness property: for any query in the mediated
// vocabulary and any interleaving of source deltas, the router's
// answer over a partitioned cluster is set-equal to a single mediator
// holding every source. Checked over the Section 5 workload and seeded
// random query/delta sequences against 2-shard and 4-shard
// partitions, with the same deltas applied to the router (HTTP) and
// the reference (ApplySourceDelta) mid-stream.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/mediator"
	"modelmed/internal/parser"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
	"modelmed/internal/wrapper"
)

// extraWrapper builds the deterministic synthetic fourth source for
// 4-shard runs. Each call returns an independent, identical wrapper.
func extraWrapper(t testing.TB) *wrapper.InMemory {
	t.Helper()
	model, err := sources.SyntheticSource("EXTRA00", 7, 12, []string{"ca1", "dentate_gyrus"})
	if err != nil {
		t.Fatal(err)
	}
	w, err := wrapper.NewInMemory(model)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sec5Workload is the Section 5 serving mix, at the view's real
// arity, plus per-mode coverage: proxy, scatter, gather,
// restricted gather, replicated, negation.
func sec5Workload() []serve.QueryRequest {
	return []serve.QueryRequest{
		{Query: `src_obj('SENSELAB', N, neurotransmission), ` +
			`src_val('SENSELAB', N, organism, "rat"), ` +
			`src_val('SENSELAB', N, transmitting_compartment, parallel_fiber), ` +
			`anchor('SENSELAB', N, C)`, Vars: []string{"N", "C"}},
		{Query: `protein_distribution(Root, P, Org, T, N)`, Vars: []string{"Root", "P", "Org", "T", "N"}},
		{Query: `src_obj('SYNAPSE', O, C)`, Vars: []string{"O", "C"}},
		{Query: `anchor(S, O, C), dm_isa_star(C, dendrite)`, Vars: []string{"S", "O", "C"}},
	}
}

// queryPool is the differential template pool; every decomposition
// mode is represented. %s slots are filled from the run's source list.
func queryPool(srcs []string) []serve.QueryRequest {
	reqs := sec5Workload()
	reqs = append(reqs,
		serve.QueryRequest{Query: `dm_isa_star(C, neuron)`, Vars: []string{"C"}},
		serve.QueryRequest{Query: `dm_down(has_a, purkinje_cell, C)`, Vars: []string{"C"}},
		serve.QueryRequest{Query: `anchor(S, O, C)`, Vars: []string{"S", "O", "C"}},
		serve.QueryRequest{Query: `anchor(S, O, C), src_val(S, O, organism, Org)`, Vars: []string{"O", "Org"}},
		serve.QueryRequest{Query: `neurotransmission(O, Org, TN, TC, RN, RC, NT)`, Vars: []string{"O", "NT"}},
		serve.QueryRequest{Query: `anchor(S, O, C), not src_val(S, O, organism, "rat")`, Vars: []string{"S", "O"}},
		serve.QueryRequest{Query: `N = count{O; anchor(S, O, C)}`, Vars: []string{"N"}},
	)
	for _, s := range srcs {
		reqs = append(reqs, serve.QueryRequest{
			Query: fmt.Sprintf(`src_obj('%s', O, C)`, s), Vars: []string{"O", "C"}})
	}
	// A cross-shard ground join (restricted gather on partitioned
	// clusters).
	if len(srcs) >= 2 {
		reqs = append(reqs, serve.QueryRequest{
			Query: fmt.Sprintf(`src_obj('%s', O, C), src_obj('%s', P, D)`, srcs[0], srcs[1]),
			Vars:  []string{"O", "C", "P", "D"}})
	}
	return reqs
}

// deltaLog tracks facts added per source so later deltas can delete
// or overwrite them again.
type deltaLog struct {
	added map[string][]string // source -> fact strings still present
	n     int
	// shared, when set, adds the shared-fact kind.
	shared *sharedFact
}

// sharedFact walks one global schema fact that owner contributes
// through a cycle with peer, a source on another shard: peer asserts it
// too, owner withdraws it (it must survive: peer still holds it), owner
// asserts it again, peer withdraws it (it survives again).
type sharedFact struct {
	fact        string
	owner, peer string
	step        int
}

func (sf *sharedFact) next() serve.DeltaRequest {
	step := sf.step
	sf.step = (sf.step + 1) % 4
	switch step {
	case 0:
		return serve.DeltaRequest{Source: sf.peer, Adds: []string{sf.fact}}
	case 1:
		return serve.DeltaRequest{Source: sf.owner, Dels: []string{sf.fact}}
	case 2:
		return serve.DeltaRequest{Source: sf.owner, Adds: []string{sf.fact}}
	default:
		return serve.DeltaRequest{Source: sf.peer, Dels: []string{sf.fact}}
	}
}

// nextDelta builds a random delta: mostly adds (a fresh object with a
// value and sometimes an anchor); sometimes the deletion of a
// previously added fact, an overwrite of an added object's value (a
// delete and an add for the same method, as the benchmark's gather
// toggle does), an anchor deletion, or the next shared-fact step.
func (dl *deltaLog) nextDelta(r *rand.Rand, srcs []string) serve.DeltaRequest {
	src := srcs[r.Intn(len(srcs))]
	if dl.added == nil {
		dl.added = map[string][]string{}
	}
	have := dl.added[src]
	switch r.Intn(6) {
	case 0:
		if dl.shared != nil {
			return dl.shared.next()
		}
	case 1:
		if i := pickFact(r, have, "src_val("); i >= 0 {
			old := have[i]
			val := strings.Replace(old, `"rat"`, `"mouse"`, 1)
			if val == old {
				val = strings.Replace(old, `"mouse"`, `"rat"`, 1)
			}
			have[i] = val
			return serve.DeltaRequest{Source: src, Adds: []string{val}, Dels: []string{old}}
		}
	case 2:
		if i := pickFact(r, have, "anchor("); i >= 0 {
			fact := have[i]
			dl.added[src] = append(have[:i], have[i+1:]...)
			return serve.DeltaRequest{Source: src, Dels: []string{fact}}
		}
	case 3:
		if len(have) > 0 {
			i := r.Intn(len(have))
			fact := have[i]
			dl.added[src] = append(have[:i], have[i+1:]...)
			return serve.DeltaRequest{Source: src, Dels: []string{fact}}
		}
	}
	dl.n++
	id := fmt.Sprintf("dx_%d", dl.n)
	adds := []string{
		fmt.Sprintf(`src_obj('%s', %s, delta_probe)`, src, id),
		fmt.Sprintf(`src_val('%s', %s, organism, "rat")`, src, id),
	}
	if r.Intn(2) == 0 {
		adds = append(adds, fmt.Sprintf(`anchor('%s', %s, purkinje_cell)`, src, id))
	}
	dl.added[src] = append(dl.added[src], adds...)
	return serve.DeltaRequest{Source: src, Adds: adds}
}

// pickFact returns the index of a random fact in facts with the given
// prefix, or -1.
func pickFact(r *rand.Rand, facts []string, prefix string) int {
	var idx []int
	for i, f := range facts {
		if strings.HasPrefix(f, prefix) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return idx[r.Intn(len(idx))]
}

// schemaFact returns a global schema fact (a method signature) that the
// source contributes on its shard, without the final period.
func schemaFact(t *testing.T, sh *testShard, source string) string {
	t.Helper()
	dumps, err := sh.med.FactsDump(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dumps {
		if d.Source != source {
			continue
		}
		for _, f := range d.Facts {
			if strings.HasPrefix(f, "method(") {
				return strings.TrimSuffix(f, ".")
			}
		}
	}
	t.Fatalf("%s on %s contributes no method signature", source, sh.id)
	return ""
}

// applyReferenceDelta applies the same delta to the monolithic
// reference via the incremental API the shard uses.
func applyReferenceDelta(t testing.TB, ref *mediator.Mediator, d serve.DeltaRequest) {
	t.Helper()
	parse := func(lines []string) []datalog.Rule {
		var out []datalog.Rule
		for _, l := range lines {
			rules, err := parser.ParseRules(l + ".")
			if err != nil {
				t.Fatalf("parse delta fact %q: %v", l, err)
			}
			out = append(out, rules...)
		}
		return out
	}
	if _, err := ref.ApplySourceDelta(d.Source, parse(d.Adds), parse(d.Dels)); err != nil {
		t.Fatalf("reference delta: %v", err)
	}
}

func checkEqual(t *testing.T, label string, resp QueryResponse, ref *mediator.Mediator, q string, vars []string) {
	t.Helper()
	if resp.Partial {
		t.Fatalf("%s: partial answer on a healthy cluster", label)
	}
	got := rowSet(resp.Rows)
	want := refRowSet(t, ref, q, vars)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s:\n  query %s\n  router %d rows, reference %d rows (mode %s)",
			label, q, len(got), len(want), resp.Mode)
	}
}

// checkHeldDumps asserts that the router's dumps of a shard, patched by
// the deltas routed to it, are fresh and render exactly what the
// shard's own FactsDump renders, numbered alike.
func checkHeldDumps(t *testing.T, label string, c *testCluster, shard string) {
	t.Helper()
	held, fresh := c.router.facts.get(shard)
	if !fresh {
		t.Fatalf("%s: the router's dumps of %s are stale", label, shard)
	}
	var want []mediator.SourceDump
	for _, sh := range c.shards {
		if sh.id == shard {
			var err error
			if want, err = sh.med.FactsDump(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(held) != len(want) {
		t.Fatalf("%s: router holds %d dumps of %s, the shard renders %d", label, len(held), shard, len(want))
	}
	for i, d := range held {
		got, w := d.Dump(), want[i]
		if got.Source != w.Source || got.Stamp != w.Stamp || !slices.Equal(got.Facts, w.Facts) ||
			!slices.Equal(got.Rules, w.Rules) || !slices.Equal(got.Anchors, w.Anchors) {
			t.Fatalf("%s: router's dump of %s (stamp %d, %d facts, %d anchors) differs from the shard's (stamp %d, %d facts, %d anchors)",
				label, w.Source, got.Stamp, len(got.Facts), len(got.Anchors), w.Stamp, len(w.Facts), len(w.Anchors))
		}
	}
}

// runDifferential drives one partitioned cluster against the
// reference: first the full workload, then seqs seeded random
// query/delta sequences with deltas interleaved mid-stream, then the
// workload again over the mutated federation.
func runDifferential(t *testing.T, assign [][]string, extras map[string]wrapper.Wrapper, extraRef []wrapper.Wrapper, seqs int) {
	c := newTestCluster(t, 2026, 14, 18, 10, assign, extras, RouterConfig{})
	ref := newReference(t, 2026, 14, 18, 10, extraRef)
	var srcs []string
	for _, names := range assign {
		srcs = append(srcs, names...)
	}
	pool := queryPool(srcs)
	// A full gather: it re-ships every stale dump and moves the replica.
	gather := serve.QueryRequest{Query: `protein_distribution(Root, P, Org, T, N)`,
		Vars: []string{"Root", "P", "Org", "T", "N"}, NoCache: true}
	// A full negated gather: the replica answers it through a per-query
	// layer of its auxiliary rule.
	negated := serve.QueryRequest{Query: `src_obj(S, O, D), not (src_val(S, O, organism, "rat"), anchor(S, O, C))`,
		Vars: []string{"S", "O", "D"}, NoCache: true}
	query := func(label string, req serve.QueryRequest) {
		t.Helper()
		resp, status := routerQuery(t, c.base(), req)
		if status != http.StatusOK {
			t.Fatalf("%s (%s): status %d", label, req.Query, status)
		}
		checkEqual(t, label, resp, ref, req.Query, req.Vars)
		checkReplica(t, label, c.router)
	}

	for i, req := range pool {
		query(fmt.Sprintf("workload %d", i), req)
	}

	dl := &deltaLog{shared: &sharedFact{
		fact:  schemaFact(t, c.shards[1], "NCMIR"),
		owner: "NCMIR",
		peer:  "SYNAPSE",
	}}
	for seq := 0; seq < seqs; seq++ {
		r := rand.New(rand.NewSource(int64(1000*seq) + 17))
		ops := 4 + r.Intn(4)
		for op := 0; op < ops; op++ {
			label := fmt.Sprintf("seq %d op %d", seq, op)
			if r.Intn(3) == 0 {
				d := dl.nextDelta(r, srcs)
				var dr DeltaResponse
				if status := postJSON(t, testHTTP, c.base()+"/v1/delta", d, &dr, nil); status != http.StatusOK {
					t.Fatalf("%s: delta to %s: status %d", label, d.Source, status)
				}
				checkHeldDumps(t, label, c, dr.Shard)
				applyReferenceDelta(t, ref, d)
				query(label+" after delta", gather)
				query(label+" negated after delta", negated)
				continue
			}
			query(label, pool[r.Intn(len(pool))])
		}
	}

	for i, req := range pool {
		query(fmt.Sprintf("final workload %d", i), req)
	}
}

func TestDifferentialTwoShards(t *testing.T) {
	runDifferential(t, twoShardAssign(), nil, nil, 25)
}

func TestDifferentialFourShards(t *testing.T) {
	extra := map[string]wrapper.Wrapper{"EXTRA00": extraWrapper(t)}
	assign := [][]string{{"SYNAPSE"}, {"NCMIR"}, {"SENSELAB"}, {"EXTRA00"}}
	runDifferential(t, assign, extra, []wrapper.Wrapper{extraWrapper(t)}, 25)
}

// TestDifferentialConcurrent hammers the router with the mixed
// workload from many goroutines while deltas land concurrently; every
// 200 answer must be non-partial and a sound subset check is implied
// by the race detector plus the final set-equality sweep.
func TestDifferentialConcurrent(t *testing.T) {
	c := newTestCluster(t, 2026, 10, 12, 8, twoShardAssign(), nil, RouterConfig{})
	ref := newReference(t, 2026, 10, 12, 8, nil)
	srcs := []string{"SYNAPSE", "SENSELAB", "NCMIR"}
	pool := queryPool(srcs)

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 15; i++ {
				req := pool[r.Intn(len(pool))]
				resp, status := routerQuery(t, c.base(), req)
				if status != http.StatusOK {
					errCh <- fmt.Errorf("worker %d: %s: status %d", g, req.Query, status)
					return
				}
				if resp.Partial {
					errCh <- fmt.Errorf("worker %d: partial on healthy cluster", g)
					return
				}
			}
		}(g)
	}
	// One delta writer interleaved with the readers.
	wg.Add(1)
	deltas := make([]serve.DeltaRequest, 0, 10)
	go func() {
		defer wg.Done()
		dl := &deltaLog{}
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 10; i++ {
			d := dl.nextDelta(r, srcs)
			var dr DeltaResponse
			if status := postJSON(t, testHTTP, c.base()+"/v1/delta", d, &dr, nil); status != http.StatusOK {
				errCh <- fmt.Errorf("delta writer: status %d", status)
				return
			}
			deltas = append(deltas, d)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Catch the reference up and verify convergence.
	for _, d := range deltas {
		applyReferenceDelta(t, ref, d)
	}
	for i, req := range pool {
		resp, status := routerQuery(t, c.base(), req)
		if status != http.StatusOK {
			t.Fatalf("converged workload %d: status %d", i, status)
		}
		checkEqual(t, fmt.Sprintf("converged workload %d", i), resp, ref, req.Query, req.Vars)
	}
}
