package cluster

// Failure semantics: a downed shard must yield flagged partial
// answers that are sound (a subset of the full answer, exactly the
// surviving shards' contribution), a hard 5xx where the query cannot
// be answered without it, and never a silently wrong answer. After
// the cooldown the next request is the half-open probe and service
// recovers without operator action.

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"modelmed/internal/breaker"
	"modelmed/internal/serve"
	"modelmed/internal/wrapper"
)

func TestChaosDownedShard(t *testing.T) {
	c := newTestCluster(t, 2026, 14, 18, 10, twoShardAssign(), nil, RouterConfig{
		Breaker: breaker.Config{Cooldown: 50 * time.Millisecond},
	})
	full := newReference(t, 2026, 14, 18, 10, nil)
	// A reference holding only shard0's sources: the exact answer the
	// degraded cluster should produce for scatter queries.
	survivors := newReference(t, 2026, 14, 18, 10, nil, "SYNAPSE", "SENSELAB")

	scatter := serve.QueryRequest{Query: `anchor(S, O, C), dm_isa_star(C, dendrite)`, Vars: []string{"S", "O", "C"}}
	proxyDown := serve.QueryRequest{Query: `src_obj('NCMIR', O, C)`, Vars: []string{"O", "C"}}
	proxyUp := serve.QueryRequest{Query: `src_obj('SYNAPSE', O, C)`, Vars: []string{"O", "C"}}
	gatherAgg := serve.QueryRequest{Query: `protein_distribution(Root, P, Org, T, N)`, Vars: []string{"Root", "P", "Org", "T", "N"}}
	gatherJoin := serve.QueryRequest{Query: `src_obj('SYNAPSE', O, C), src_obj('NCMIR', P, D)`, Vars: []string{"O", "C", "P", "D"}}

	// Healthy baseline, and pin the full-cluster answers.
	for _, req := range []serve.QueryRequest{scatter, proxyDown, gatherAgg} {
		resp, status := routerQuery(t, c.base(), req)
		if status != http.StatusOK || resp.Partial {
			t.Fatalf("healthy %s: status %d partial %v", req.Query, status, resp.Partial)
		}
	}

	// Take shard1 (NCMIR) down. Use NoCache so every probe hits shards.
	c.shards[1].down.Store(true)
	scatter.NoCache = true
	proxyDown.NoCache = true
	proxyUp.NoCache = true
	gatherAgg.NoCache = true
	gatherJoin.NoCache = true
	// The gather facts cache still holds NCMIR's dump from the healthy
	// baseline; that is by design (consistent as-of last contact). Empty
	// it so this test exercises the cold degraded path.
	c.router.facts.mu.Lock()
	clear(c.router.facts.shards)
	c.router.facts.mu.Unlock()

	// First scatter trips the breaker on shard1 but still answers.
	resp, status := routerQuery(t, c.base(), scatter)
	if status != http.StatusOK {
		t.Fatalf("degraded scatter: status %d", status)
	}
	if !resp.Partial {
		t.Fatal("degraded scatter: answer not flagged partial")
	}
	got := rowSet(resp.Rows)
	fullRows := refRowSet(t, full, scatter.Query, scatter.Vars)
	wantSurvivors := refRowSet(t, survivors, scatter.Query, scatter.Vars)
	if strings.Join(got, "\n") != strings.Join(wantSurvivors, "\n") {
		t.Errorf("degraded scatter: got %d rows, want the %d surviving-shard rows", len(got), len(wantSurvivors))
	}
	fullSet := map[string]bool{}
	for _, r := range fullRows {
		fullSet[r] = true
	}
	for _, r := range got {
		if !fullSet[r] {
			t.Errorf("degraded scatter produced a row absent from the full answer: %q", r)
		}
	}
	var downReported bool
	for _, sr := range resp.Shards {
		if sr.ID == "shard1" && sr.Status != "ok" {
			downReported = true
		}
	}
	if !downReported {
		t.Errorf("degraded scatter: shard1 outage not reported in shard reports: %+v", resp.Shards)
	}

	// Proxy to the downed shard: hard failure, never empty-200. The
	// first hit may race the breaker state (502 from the live probe);
	// once open it is 503.
	if _, status := routerQuery(t, c.base(), proxyDown); status < 500 {
		t.Fatalf("proxy to downed shard: status %d, want 5xx", status)
	}
	// Proxy to the healthy shard still works.
	if resp, status := routerQuery(t, c.base(), proxyUp); status != http.StatusOK || resp.Partial {
		t.Fatalf("proxy to healthy shard while peer down: status %d partial %v", status, resp.Partial)
	}
	// Aggregation over the partitioned relation: a partial input would
	// produce a wrong value, so the router must refuse.
	if _, status := routerQuery(t, c.base(), gatherAgg); status != http.StatusServiceUnavailable {
		t.Fatalf("aggregate gather with shard down: status %d, want 503", status)
	}
	// A non-aggregate cross-shard join degrades to a flagged partial.
	resp, status = routerQuery(t, c.base(), gatherJoin)
	if status != http.StatusOK {
		t.Fatalf("join gather with shard down: status %d", status)
	}
	if !resp.Partial {
		t.Fatal("join gather with shard down: not flagged partial")
	}
	if len(resp.Rows) != 0 {
		t.Errorf("join gather missing one side: want 0 rows, got %d", len(resp.Rows))
	}

	// A delta for the downed shard's source must be rejected, not
	// dropped on the floor.
	d := serve.DeltaRequest{Source: "NCMIR", Adds: []string{`src_obj('NCMIR', chaos_1, delta_probe)`}}
	var dr DeltaResponse
	if status := postJSON(t, testHTTP, c.base()+"/v1/delta", d, &dr, nil); status < 500 {
		t.Fatalf("delta to downed shard: status %d, want 5xx", status)
	}

	// Recovery: bring the shard back, wait out the cooldown; the next
	// request is the half-open probe and full service resumes.
	c.shards[1].down.Store(false)
	time.Sleep(80 * time.Millisecond)
	resp, status = routerQuery(t, c.base(), scatter)
	if status != http.StatusOK {
		t.Fatalf("recovered scatter: status %d", status)
	}
	if resp.Partial {
		t.Fatal("recovered scatter still partial after cooldown")
	}
	if got := rowSet(resp.Rows); strings.Join(got, "\n") != strings.Join(fullRows, "\n") {
		t.Errorf("recovered scatter: %d rows, want the full %d", len(got), len(fullRows))
	}
	if resp, status := routerQuery(t, c.base(), gatherAgg); status != http.StatusOK || resp.Partial {
		t.Fatalf("recovered aggregate: status %d partial %v", status, resp.Partial)
	}
	if status := postJSON(t, testHTTP, c.base()+"/v1/delta", d, &dr, nil); status != http.StatusOK {
		t.Fatalf("delta after recovery: status %d", status)
	}
}

// TestRestrictedGatherFaults: a gather restricted to the shards owning
// its sources reads no other shard, so another shard down leaves its
// answer complete and unflagged; one of its own shards down flags it
// partial.
func TestRestrictedGatherFaults(t *testing.T) {
	assign := [][]string{{"SYNAPSE"}, {"NCMIR"}, {"SENSELAB"}, {"EXTRA00"}}
	ref := newReference(t, 2026, 14, 18, 10, []wrapper.Wrapper{extraWrapper(t)})
	join := serve.QueryRequest{Query: `src_obj('SYNAPSE', O, C), src_obj('NCMIR', P, D)`,
		Vars: []string{"O", "C", "P", "D"}, NoCache: true}
	for _, down := range []string{"SENSELAB", "NCMIR"} {
		c := newTestCluster(t, 2026, 14, 18, 10, assign, map[string]wrapper.Wrapper{"EXTRA00": extraWrapper(t)}, RouterConfig{})
		sh, _ := c.router.Manager().Owner(down)
		for _, ts := range c.shards {
			if ts.id == sh.ID {
				ts.down.Store(true)
			}
		}
		resp, status := routerQuery(t, c.base(), join)
		if status != http.StatusOK {
			t.Fatalf("%s down: status %d", down, status)
		}
		if resp.Mode != "gather" {
			t.Fatalf("%s down: mode %s, want gather", down, resp.Mode)
		}
		if down == "SENSELAB" {
			checkEqual(t, "restricted gather with SENSELAB's shard down", resp, ref, join.Query, join.Vars)
		} else if !resp.Partial {
			t.Errorf("restricted gather with NCMIR's shard down: not flagged partial")
		}
	}
}

// TestClientCancelDoesNotTripBreaker: a request that dies on its own
// deadline mid-shard-call is the client's fault, not the shard's — it
// must not open the breaker and black the shard out for everyone
// else.
func TestClientCancelDoesNotTripBreaker(t *testing.T) {
	c := newTestCluster(t, 2026, 14, 18, 10, twoShardAssign(), nil, RouterConfig{
		Breaker: breaker.Config{Cooldown: 10 * time.Minute}, // a wrongly tripped breaker would stay visible
	})

	// Slow the shards so the router's 1ms request deadline expires
	// while the shard calls are in flight — exactly what a client
	// disconnect mid-fan-out looks like from the router's side.
	for _, sh := range c.shards {
		sh.slowMs.Store(30)
	}
	impatient := serve.QueryRequest{Query: `anchor(S, O, C)`, Vars: []string{"S", "O", "C"},
		NoCache: true, TimeoutMs: 1}
	for i := 0; i < 5; i++ {
		if _, status := routerQuery(t, c.base(), impatient); status == http.StatusOK {
			t.Fatal("1ms deadline did not expire against 30ms-slow shards")
		}
	}
	for _, sh := range c.shards {
		sh.slowMs.Store(0)
	}

	patient := serve.QueryRequest{Query: `anchor(S, O, C)`, Vars: []string{"S", "O", "C"}, NoCache: true}
	resp, status := routerQuery(t, c.base(), patient)
	if status != http.StatusOK {
		t.Fatalf("query after impatient clients: status %d", status)
	}
	if resp.Partial {
		t.Fatalf("impatient clients tripped the breaker: partial answer, shards %+v", resp.Shards)
	}
}
