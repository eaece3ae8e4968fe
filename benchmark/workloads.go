package main

// The four workloads, their correctness oracle and their load
// generators.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"modelmed/internal/load"
	"modelmed/internal/mediator"
	"modelmed/internal/wrapper"
)

// workload is one traffic mix over one system composition.
type workload struct {
	Name string
	// Scale multiplies the seed record volume.
	Scale int
	// Clients is the number of closed-loop clients.
	Clients int
	// Flush is the durability policy of the system under test.
	Flush string
	// Classes names the classes of timed operation, in class order.
	Classes []string
	boot    func(ws map[string]*wrapper.InMemory, dir string) (*system, error)
}

var workloads = []*workload{
	{Name: "direct_sourceful", Scale: 10, Clients: 2, Flush: "none (no data dir)",
		Classes: []string{"sec5", "scan", "anchor"},
		boot:    func(ws map[string]*wrapper.InMemory, _ string) (*system, error) { return bootDirect(ws) }},
	{Name: "router_sourceful", Scale: 10, Clients: 2, Flush: "none (no data dir)",
		Classes: []string{"sec5", "scan", "anchor"},
		boot:    func(ws map[string]*wrapper.InMemory, _ string) (*system, error) { return bootCluster(ws, nil) }},
	{Name: "router_gather", Scale: 1, Clients: 1, Flush: "none (no data dir)",
		Classes: []string{"ship", "cached"},
		boot:    func(ws map[string]*wrapper.InMemory, _ string) (*system, error) { return bootCluster(ws, nil) }},
	{Name: "live_update", Scale: 10, Clients: 1, Flush: "WAL append before each 200, NoSync (the sandbox disk is not the program)",
		Classes: []string{"notify_delete", "notify_add"},
		boot:    bootDurable},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// --- correctness oracle ---

// oracle predicts every answer the system under test may give, from
// mediators built from scratch over the source states — never from the
// incremental path being measured.
type oracle struct {
	// ref is a monolith over the base source state.
	ref *mediator.Mediator
	// allowed[state][request] is the set of acceptable answer
	// signatures. Read-only workloads have one state; router_gather has
	// the two states its NCMIR toggle alternates between; live_update
	// has one state holding every signature a prefix or suffix of the
	// batch cycle can produce, because its reads race its writes.
	allowed [][]map[answerSig]bool
}

func renderAnswer(a *mediator.Answer) [][]string {
	rows := make([][]string, len(a.Rows))
	for i, row := range a.Rows {
		cells := make([]string, len(row))
		for j, t := range row {
			cells[j] = t.String()
		}
		rows[i] = cells
	}
	return rows
}

func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(out)
	return out
}

func refRows(med *mediator.Mediator, r *request) ([][]string, error) {
	a, err := med.Query(r.Query, r.Vars...)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", r.Name, err)
	}
	return renderAnswer(a), nil
}

func newOracle(w *workload, seed int64, in *inputs) (*oracle, error) {
	ws, err := buildSources(seed, w.Scale)
	if err != nil {
		return nil, err
	}
	ref, err := newMediator(ws, sourceNames)
	if err != nil {
		return nil, err
	}
	o := &oracle{ref: ref}
	base := make([]map[answerSig]bool, len(in.Requests))
	baseSig := make([]answerSig, len(in.Requests))
	for i := range in.Requests {
		rows, err := refRows(ref, &in.Requests[i])
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("reference %s: empty answer; the workload would time nothing", in.Requests[i].Name)
		}
		baseSig[i] = sigOf(rows)
		base[i] = map[answerSig]bool{baseSig[i]: true}
	}
	o.allowed = append(o.allowed, base)

	switch w.Name {
	case "router_gather":
		// State 1: a from-scratch monolith over sources in which the
		// NCMIR value already reads what the "on" delta writes.
		ws1, err := buildSources(seed, w.Scale)
		if err != nil {
			return nil, err
		}
		if err := overwriteValue(ws1["NCMIR"], in.Deltas[1]); err != nil {
			return nil, err
		}
		ref1, err := newMediator(ws1, sourceNames)
		if err != nil {
			return nil, err
		}
		rows, err := refRows(ref1, &in.Requests[0])
		if err != nil {
			return nil, err
		}
		sig := sigOf(rows)
		if sig == baseSig[0] {
			return nil, errors.New("router_gather: the NCMIR delta does not change the answer")
		}
		o.allowed = append(o.allowed, []map[answerSig]bool{{sig: true}})
	case "live_update":
		for i := range in.Requests {
			r := &in.Requests[i]
			if r.batchRow == nil {
				continue
			}
			batchSig := make([]answerSig, len(in.Batches))
			for k, batch := range in.Batches {
				for _, obj := range batch {
					batchSig[k] = batchSig[k].plus(sigOf([][]string{r.batchRow(obj)}))
				}
			}
			// Way up: batches [0,j) present. Way down: batches [j,K).
			up, down := baseSig[i], baseSig[i]
			for _, s := range batchSig {
				down = down.plus(s)
			}
			for _, s := range batchSig {
				up, down = up.plus(s), down.minus(s)
				base[i][up], base[i][down] = true, true
			}
		}
	}
	return o, nil
}

// overwriteValue edits a wrapper's model the way the delta d would
// edit the mediator: d adds one src_val fact and deletes another for
// the same object and method.
func overwriteValue(w *wrapper.InMemory, d delta) error {
	args := d.adds[0].Head.Args
	id, method, val := args[1], args[2].Name(), args[3]
	for i, o := range w.Model().Objects {
		if o.ID.Equal(id) {
			w.Model().Objects[i].Values[method][0] = val
			return nil
		}
	}
	return fmt.Errorf("overwrite: no object %s in %s", id, w.Name())
}

// check reports whether rows is an acceptable answer to request i in
// the given state.
func (o *oracle) check(state, i int, rows [][]string) bool {
	return o.allowed[state][i][sigOf(rows)]
}

// verifyAnswers checks, through the front door, that every distinct
// request's sorted rows equal the from-scratch monolith's.
func (o *oracle) verifyAnswers(c *http.Client, base string, in *inputs) error {
	for i := range in.Requests {
		r := &in.Requests[i]
		want, err := refRows(o.ref, r)
		if err != nil {
			return err
		}
		got, err := query(c, base, r.body)
		if err != nil {
			return fmt.Errorf("verify %s: %w", r.Name, err)
		}
		ws, gs := sortedRows(want), sortedRows(got)
		if len(ws) != len(gs) {
			return fmt.Errorf("verify %s: %d rows, reference has %d", r.Name, len(gs), len(ws))
		}
		for j := range ws {
			if ws[j] != gs[j] {
				return fmt.Errorf("verify %s: row %d is %q, reference has %q", r.Name, j, gs[j], ws[j])
			}
		}
	}
	return nil
}

// verifyStores checks, after a workload that wrote, that every
// mediator's final store is set-equal to a from-scratch rebuild over
// the final source states (which, the delta cycle being complete, are
// the base states again).
func (o *oracle) verifyStores(w *workload, seed int64, sys *system) error {
	parts := [][]string{sourceNames}
	if sys.router != nil {
		parts = twoShards
	}
	for i, med := range sys.meds {
		rebuilt := o.ref
		if sys.router != nil {
			ws, err := buildSources(seed, w.Scale)
			if err != nil {
				return err
			}
			if rebuilt, err = newMediator(ws, parts[i]); err != nil {
				return err
			}
		}
		got, err := med.Materialize()
		if err != nil {
			return err
		}
		want, err := rebuilt.Materialize()
		if err != nil {
			return err
		}
		if !got.Store.Equal(want.Store) {
			return fmt.Errorf("final store of mediator %d (%d facts) differs from a from-scratch rebuild (%d facts)",
				i, got.Store.Size(), want.Store.Size())
		}
	}
	return nil
}

// --- HTTP ---

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// query posts one query request and returns the answer rows.
func query(c *http.Client, base string, body []byte) ([][]string, error) {
	b, err := post(c, base+"/v1/query", body)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// --- load generation ---

// recorder collects one goroutine's outcomes; recorders are merged
// after every goroutine has returned.
type recorder struct {
	ops       []time.Time // completion times counted for throughput
	lats      []sample    // timed operations
	attempted int
	failed    int
	wrong     int // failed because the answer was wrong
	firstErr  error
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *recorder) merge(o *recorder) {
	r.ops = append(r.ops, o.ops...)
	r.lats = append(r.lats, o.lats...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// timedQuery issues request i, checks the answer and records it,
// timed under the given class (not timed when class < 0). A failed
// operation has no latency sample and no throughput credit.
func timedQuery(c *http.Client, base string, in *inputs, o *oracle, state, i int, rec *recorder, class int) {
	rec.attempted++
	t0 := time.Now()
	rows, err := query(c, base, in.Requests[i].body)
	end := time.Now()
	if err != nil {
		rec.fail(fmt.Errorf("%s: %w", in.Requests[i].Name, err))
		return
	}
	if !o.check(state, i, rows) {
		rec.wrong++
		rec.fail(fmt.Errorf("%s: wrong answer (%d rows)", in.Requests[i].Name, len(rows)))
		return
	}
	rec.ops = append(rec.ops, end)
	if class >= 0 {
		rec.lats = append(rec.lats, sample{end: end, lat: end.Sub(t0), class: class})
	}
}

// closedLoop is one client that sends its next request only after the
// previous one completed, until the deadline. When timed, each request
// is its own latency class.
func closedLoop(base string, in *inputs, o *oracle, client int, deadline time.Time, timed bool) *recorder {
	rec := &recorder{}
	c := newClient()
	defer c.CloseIdleConnections()
	order := in.Order[client]
	for n := 0; time.Now().Before(deadline); n++ {
		i := order[n%len(order)]
		class := -1
		if timed {
			class = i
		}
		timedQuery(c, base, in, o, 0, i, rec, class)
	}
	return rec
}

// gatherLoop is router_gather's single client: the fixed cycle
// [delta, Q, Q, Q] alternating between the two shards. Only the Q
// operations are timed; every delta is attempted and checked. It stops
// at the first cycle boundary after the deadline, so the sources are
// back in their base state.
func gatherLoop(base string, in *inputs, o *oracle, deadline time.Time) *recorder {
	rec := &recorder{}
	c := newClient()
	defer c.CloseIdleConnections()
	state := 0
	for n := 0; ; n++ {
		if n%len(in.Deltas) == 0 && !time.Now().Before(deadline) {
			return rec
		}
		d := &in.Deltas[n%len(in.Deltas)]
		rec.attempted++
		if _, err := post(c, base+"/v1/delta", d.body); err != nil {
			rec.fail(fmt.Errorf("delta %s: %w", d.Source, err))
			continue
		}
		state = d.State
		// The first Q after a delta finds that shard's fact dump dropped
		// and waits for a re-ship (class 0); the other two evaluate over
		// cached dumps (class 1).
		for q := 0; q < 3; q++ {
			timedQuery(c, base, in, o, state, 0, rec, min(q, 1))
		}
	}
}

// liveResult is what live_update's three goroutines produce together.
type liveResult struct {
	rec recorder
	// lateMs is how late the open-loop writer sent each delta it
	// posted.
	lateMs []float64
}

// batchKey identifies "batch k was added" / "batch k was deleted".
type batchKey struct {
	batch int
	add   bool
}

// notifyBook matches answer-delta events to the deltas that caused
// them. A delta is registered with its due time before it is sent; the
// first event that mentions its batch resolves the oldest pending
// delta of that batch and direction.
type notifyBook struct {
	mu      sync.Mutex
	pending map[batchKey][]time.Time
	lats    []sample
}

func (b *notifyBook) expect(k batchKey, due time.Time) {
	b.mu.Lock()
	b.pending[k] = append(b.pending[k], due)
	b.mu.Unlock()
}

func (b *notifyBook) notified(k batchKey, at time.Time) {
	b.mu.Lock()
	if q := b.pending[k]; len(q) > 0 {
		class := 0
		if k.add {
			class = 1
		}
		b.lats = append(b.lats, sample{end: at, lat: at.Sub(q[0]), class: class})
		b.pending[k] = q[1:]
	}
	b.mu.Unlock()
}

func (b *notifyBook) outstanding() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, q := range b.pending {
		n += len(q)
	}
	return n
}

// batchOfRow maps an answer row of the standing query back to the
// batch whose object it shows (-1 for a base object).
func batchOfRow(row []string, index map[string]int) int {
	if len(row) == 0 {
		return -1
	}
	if k, ok := index[row[0]]; ok {
		return k
	}
	return -1
}

// pacedLoop is live_update's reader in the gated run: an open loop
// that issues its requests at a fixed rate until the deadline, catching
// up after a stall, so the number of reads beside each delta — and with
// it the allocation per delta — does not depend on how fast the box
// happens to be.
func pacedLoop(base string, in *inputs, o *oracle, rate float64, deadline time.Time) *recorder {
	rec := &recorder{}
	c := newClient()
	defer c.CloseIdleConnections()
	order := in.Order[0]
	start := time.Now()
	for n := 0; ; n++ {
		due := dueTime(start, n, rate)
		if !due.Before(deadline) {
			return rec
		}
		time.Sleep(time.Until(due))
		timedQuery(c, base, in, o, 0, order[n%len(order)], rec, -1)
	}
}

// liveLoad runs live_update's traffic until the deadline: one
// open-loop writer at liveWriteRate, one SSE subscriber, and one reader,
// open-loop at readRate or, when readRate is 0, closed-loop. The
// recorder's ops are the reader's queries, its timed operations the
// notifications. The writer finishes its delta cycle past the deadline
// so the store is back in its base state.
func liveLoad(base string, in *inputs, o *oracle, readRate float64, deadline time.Time) (*liveResult, error) {
	res := &liveResult{}
	book := &notifyBook{pending: map[batchKey][]time.Time{}}
	index := map[string]int{}
	for k, batch := range in.Batches {
		for _, obj := range batch {
			index[obj.ID.String()] = k
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	subClient := newClient()
	defer subClient.CloseIdleConnections()
	sub, err := load.Subscribe(ctx, subClient, base, "", load.SubscribeRequest{Query: standingQuery, Vars: []string{"O", "C"}})
	if err != nil {
		return nil, err
	}
	defer sub.Close()
	select {
	case ev, ok := <-sub.Events:
		if !ok || ev.Type != "snapshot" {
			return nil, fmt.Errorf("subscribe: no initial snapshot (%v)", sub.Err())
		}
	case <-time.After(10 * time.Second):
		return nil, errors.New("subscribe: no initial snapshot within 10s")
	}

	var wg sync.WaitGroup
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for ev := range sub.Events {
			if ev.Type != "delta" {
				continue
			}
			var d load.AnswerDelta
			if json.Unmarshal(ev.Data, &d) != nil {
				continue
			}
			seen := map[batchKey]bool{}
			for _, row := range d.Added {
				seen[batchKey{batchOfRow(row, index), true}] = true
			}
			for _, row := range d.Removed {
				seen[batchKey{batchOfRow(row, index), false}] = true
			}
			for k := range seen {
				if k.batch >= 0 {
					book.notified(k, ev.At)
				}
			}
		}
	}()

	var writer recorder
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		start := time.Now()
		for n := 0; ; n++ {
			due := dueTime(start, n, liveWriteRate)
			if n%len(in.Deltas) == 0 && !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			d := &in.Deltas[n%len(in.Deltas)]
			book.expect(batchKey{d.Batch, d.Add}, due)
			writer.attempted++
			sent := time.Now()
			if _, err := post(c, base+"/v1/delta", d.body); err != nil {
				writer.fail(fmt.Errorf("delta: %w", err))
				continue
			}
			res.lateMs = append(res.lateMs, ms(sent.Sub(due)))
		}
	}()

	var reader *recorder
	wg.Add(1)
	go func() {
		defer wg.Done()
		if readRate > 0 {
			reader = pacedLoop(base, in, o, readRate, deadline)
		} else {
			reader = closedLoop(base, in, o, 0, deadline, false)
		}
	}()
	wg.Wait()

	// Every delta has been answered with a 200; give the subscriber a
	// moment to hear about the last ones, then close the stream.
	for wait := time.Now().Add(5 * time.Second); book.outstanding() > 0 && time.Now().Before(wait); {
		time.Sleep(5 * time.Millisecond)
	}
	sub.Close()
	<-subDone

	res.rec.merge(reader)
	res.rec.merge(&writer)
	res.rec.lats = book.lats
	// Each delta is attempted twice: the POST and the notification.
	res.rec.attempted += writer.attempted - writer.failed
	if missed := book.outstanding(); missed > 0 {
		res.rec.failed += missed
		if res.rec.firstErr == nil {
			res.rec.firstErr = fmt.Errorf("%d deltas were never notified", missed)
		}
	}
	return res, nil
}

// dataDir returns a fresh directory for a durable system, inside the
// benchmark's output directory.
func dataDir(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "data-")
}
