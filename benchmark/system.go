package main

// System composition: the same wiring cmd/medd and cmd/medrouter do,
// in-process, with every server on a 127.0.0.1:0 loopback listener.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"modelmed/internal/cluster"
	"modelmed/internal/gcm"
	"modelmed/internal/mediator"
	"modelmed/internal/persist"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// shapeSeed fixes the multiset of records every run works on. The
// -seed flag permutes which object carries which record, the request
// order and the objects the deltas touch — identity and order, never
// volume — so two seeds do the same amount of work and the spread
// across seeds is measurement noise, not input size.
const shapeSeed = 2026

// Seed volume of cmd/benchrunner/cluster.go: SYNAPSE, NCMIR, SENSELAB
// and EXTRA00 record counts at scale 1.
var seedVolume = [4]int{40, 80, 24, 40}

// sourceNames in shard-partition order: shard0 owns the first two,
// shard1 the last two.
var sourceNames = []string{"SYNAPSE", "SENSELAB", "NCMIR", "EXTRA00"}

// twoShards is the router workloads' partition.
var twoShards = [][]string{{"SYNAPSE", "SENSELAB"}, {"NCMIR", "EXTRA00"}}

// buildSources generates the four-source federation at the given scale
// multiplier. This is synthetic input generation and is excluded from
// setup_s.
func buildSources(seed int64, scale int) (map[string]*wrapper.InMemory, error) {
	ws, err := sources.Wrappers(shapeSeed, seedVolume[0]*scale, seedVolume[1]*scale, seedVolume[2]*scale)
	if err != nil {
		return nil, err
	}
	model, err := sources.SyntheticSource("EXTRA00", shapeSeed, seedVolume[3]*scale, []string{"ca1", "dentate_gyrus"})
	if err != nil {
		return nil, err
	}
	extra, err := wrapper.NewInMemory(model)
	if err != nil {
		return nil, err
	}
	byName := map[string]*wrapper.InMemory{}
	for _, w := range append(ws, extra) {
		byName[w.Name()] = w
	}
	r := rand.New(rand.NewSource(seed))
	for _, name := range sourceNames {
		permuteRecords(r, byName[name].Model())
	}
	return byName, nil
}

// permuteRecords shuffles, within each class, which object ID carries
// which value record. SENSELAB's object 0 keeps the canonical Section 5
// record so the query it anchors never comes back empty.
func permuteRecords(r *rand.Rand, m *gcm.Model) {
	byClass := map[string][]int{}
	for i, o := range m.Objects {
		if m.Name == "SENSELAB" && i == 0 {
			continue
		}
		byClass[o.Class] = append(byClass[o.Class], i)
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		idx := byClass[c]
		vals := make([]map[string][]term.Term, len(idx))
		for j, i := range idx {
			vals[j] = m.Objects[i].Values
		}
		r.Shuffle(len(vals), func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
		for j, i := range idx {
			m.Objects[i].Values = vals[j]
		}
	}
}

// registered returns a mediator with the named sources registered and
// the standard views defined, not yet materialized.
func registered(ws map[string]*wrapper.InMemory, names []string) (*mediator.Mediator, error) {
	med := mediator.New(sources.NeuroDM(), nil)
	for _, n := range names {
		w, ok := ws[n]
		if !ok {
			return nil, fmt.Errorf("unknown source %s", n)
		}
		if err := med.Register(w); err != nil {
			return nil, err
		}
	}
	return med, med.DefineStandardViews()
}

// newMediator is registered plus the cold materialization every boot
// pays.
func newMediator(ws map[string]*wrapper.InMemory, names []string) (*mediator.Mediator, error) {
	med, err := registered(ws, names)
	if err != nil {
		return nil, err
	}
	_, err = med.Materialize()
	return med, err
}

// listener is one loopback HTTP server.
type listener struct {
	base string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{base: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln)
	}()
	return l, nil
}

// stop closes the listener and its connections and waits for Serve to
// return.
func (l *listener) stop() {
	_ = l.hs.Close()
	<-l.done
}

// system is one workload's system under test.
type system struct {
	// base is the front door the load generator talks to.
	base string
	// meds are the source-holding mediators: one for the direct
	// workloads, one per shard behind a router.
	meds    []*mediator.Mediator
	servers []*serve.Server
	router  *cluster.Router
	// replica is the router's source-less mediator.
	replica *mediator.Mediator
	db      *persist.DB
	// walErr holds the first failed WAL append.
	walErr    atomic.Pointer[error]
	listeners []*listener
}

// err reports a failure the serving path could not return to a client.
func (s *system) err() error {
	if p := s.walErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *system) stop() {
	for _, srv := range s.servers {
		srv.BeginDrain()
	}
	for i := len(s.listeners) - 1; i >= 0; i-- {
		s.listeners[i].stop()
	}
	if s.db != nil {
		_ = s.db.Close()
	}
}

// bootDirect is medd: one mediator holding every source behind one
// serve.Server.
func bootDirect(ws map[string]*wrapper.InMemory) (*system, error) {
	med, err := newMediator(ws, sourceNames)
	if err != nil {
		return nil, err
	}
	return serveMediator(med, nil)
}

func serveMediator(med *mediator.Mediator, db *persist.DB) (*system, error) {
	srv := serve.New(med, serve.Config{})
	l, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &system{base: l.base, meds: []*mediator.Mediator{med}, servers: []*serve.Server{srv},
		db: db, listeners: []*listener{l}}, nil
}

// bootCluster is two medd shards plus a medrouter that discovers them.
// wrap, when not nil, is put around each shard's handler (the traced
// run counts the bytes /v1/facts ships through it).
func bootCluster(ws map[string]*wrapper.InMemory, wrap func(http.Handler) http.Handler) (*system, error) {
	s := &system{}
	var topo []cluster.ShardConfig
	for i, names := range twoShards {
		med, err := newMediator(ws, names)
		if err != nil {
			s.stop()
			return nil, err
		}
		id := fmt.Sprintf("shard%d", i)
		srv := serve.New(med, serve.Config{ShardID: id})
		h := srv.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		l, err := listen(h)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.meds = append(s.meds, med)
		s.servers = append(s.servers, srv)
		s.listeners = append(s.listeners, l)
		topo = append(topo, cluster.ShardConfig{ID: id, URL: l.base})
	}
	rep := mediator.New(sources.NeuroDM(), nil)
	if err := rep.DefineStandardViews(); err != nil {
		s.stop()
		return nil, err
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Shards: topo, Replica: rep})
	if err != nil {
		s.stop()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = rt.Discover(ctx)
	cancel()
	if err != nil {
		s.stop()
		return nil, err
	}
	l, err := listen(rt.Handler())
	if err != nil {
		s.stop()
		return nil, err
	}
	s.router, s.replica = rt, rep
	s.listeners = append(s.listeners, l)
	s.base = l.base
	return s, nil
}

// bootDurable is medd -data-dir booted twice: the first boot finds an
// empty directory, builds cold and leaves a snapshot; the second boot
// — the one that serves — restores from it, then rotates its own
// baseline image and logs every delta ahead of the 200.
func bootDurable(ws map[string]*wrapper.InMemory, dir string) (*system, error) {
	opts := &persist.Options{NoSync: true}
	db, err := persist.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	first, err := newMediator(ws, sourceNames)
	if err == nil {
		err = first.SaveSnapshotTo(db)
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	db, err = persist.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	med, err := registered(ws, sourceNames)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	if rep := med.RestoreFromDB(db); !rep.Restored || len(rep.StaleSources) > 0 {
		_ = db.Close()
		return nil, fmt.Errorf("second boot was not a clean warm start: restored=%v reason=%q stale=%s",
			rep.Restored, rep.Reason, strings.Join(rep.StaleSources, ","))
	}
	if err := med.SaveSnapshotTo(db); err != nil {
		_ = db.Close()
		return nil, err
	}
	s, err := serveMediator(med, db)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	med.SetDeltaLogger(func(rec *persist.WALRecord) {
		if err := db.AppendWAL(rec); err != nil {
			err = fmt.Errorf("wal append: %w", err)
			s.walErr.CompareAndSwap(nil, &err)
		}
	})
	return s, nil
}
