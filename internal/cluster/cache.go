package cluster

// The router's copy of shard state: the facts cache and the replica
// over it. The router keeps no answers: a proxy or scatter request
// reaches shards whose own answer caches validate by the versions
// their mediators publish, and every other answer is read from the
// replica. The facts cache keeps each shard's dumps in parsed form,
// numbered by the shard's stamps, so consecutive gather queries don't
// re-pull a shard: a delta routed to a shard patches the dump of its
// source by the change the shard's reply carries, and only a change
// the router could not patch (a full rebuild, a number gap, a
// restarted shard) makes the next gather re-ship the shard, at the
// cost of a parse of its changed lines. The replica is the
// materialised result over the dumps the gathers read, moved with
// ApplyDelta as the dumps move.

import (
	"context"
	"maps"
	"slices"
	"sync"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/mediator"
)

// factsCache keeps each shard's dumps, parsed, each numbered with the
// stamp of the source state it renders, in the shard's epoch. A change
// routed to a shard is recorded by the number it committed (To), and a
// shard's dumps are fresh while each is at least as new as every
// change routed to its source in the same epoch. A routed change whose
// From is the number of the held dump patches that dump to To; a full
// rebuild, a number gap or another epoch leaves it stale, and the next
// gather re-ships the shard's dumps and parses them against the held
// ones. A ship never replaces a newer dump of a source: the cache only
// moves forward.
type factsCache struct {
	mu     sync.Mutex
	shards map[string]*shardFacts
}

type shardFacts struct {
	epoch uint64                 // the numbering the dumps' stamps are in
	dumps []*mediator.ParsedDump // by source; nil before the first ship
	// routed is, per source, the newest number a change routed to the
	// shard committed, in routedEpoch.
	routedEpoch uint64
	routed      map[string]uint64
}

func newFactsCache() *factsCache {
	return &factsCache{shards: map[string]*shardFacts{}}
}

func (c *factsCache) shard(id string) *shardFacts {
	s := c.shards[id]
	if s == nil {
		s = &shardFacts{}
		c.shards[id] = s
	}
	return s
}

// find returns the held dump of source, or nil.
func (s *shardFacts) find(source string) *mediator.ParsedDump {
	for _, d := range s.dumps {
		if d.Source == source {
			return d
		}
	}
	return nil
}

// fresh reports whether the dumps reflect every change routed to the
// shard.
func (s *shardFacts) fresh() bool {
	if s.dumps == nil {
		return false
	}
	if len(s.routed) > 0 && s.epoch != s.routedEpoch {
		return false
	}
	for src, n := range s.routed {
		if d := s.find(src); d == nil || d.Stamp < n {
			return false
		}
	}
	return true
}

// get returns the shard's cached dumps (the parse base when they are
// not fresh).
func (c *factsCache) get(shard string) (dumps []*mediator.ParsedDump, fresh bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shard(shard)
	return s.dumps, s.fresh()
}

// put stores the dumps a ship read in epoch, keeping a held dump of a
// source that is newer than the shipped one.
func (c *factsCache) put(shard string, epoch uint64, shipped []*mediator.ParsedDump) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shard(shard)
	if s.epoch == epoch {
		for i, d := range shipped {
			if held := s.find(d.Source); held != nil && held.Stamp >= d.Stamp {
				shipped[i] = held
			}
		}
	}
	s.epoch, s.dumps = epoch, shipped
}

// held returns the held dump of source when it is the state numbered
// from in epoch, the base a change taken from that state patches.
func (c *factsCache) held(shard string, epoch uint64, source string, from uint64) *mediator.ParsedDump {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shard(shard)
	if d := s.find(source); d != nil && s.epoch == epoch && d.Stamp == from {
		return d
	}
	return nil
}

// routed records a change routed to shard that committed source's
// state numbered to in epoch, and replaces the held dump base with
// next, the dump patched to that state, unless base is nil or no
// longer held. Both happen under one lock, so no gather sees the
// change recorded and the dump not yet patched.
func (c *factsCache) routed(shard string, epoch uint64, source string, to uint64, base, next *mediator.ParsedDump) (patched bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shard(shard)
	if s.routedEpoch != epoch {
		s.routedEpoch, s.routed = epoch, map[string]uint64{}
	}
	s.routed[source] = max(s.routed[source], to)
	if base == nil {
		return false
	}
	i := slices.Index(s.dumps, base)
	if i < 0 {
		return false
	}
	s.dumps = slices.Clone(s.dumps)
	s.dumps[i] = next
	return true
}

// mark numbers one source's dump: its stamp, in its shard's epoch.
type mark struct{ epoch, stamp uint64 }

// factsState is the cached dumps of a set of shards at one moment, the
// state a gather moves the replica to. keep, when set, names the
// sources outside it whose dumps the replica keeps as it holds them.
type factsState struct {
	marks map[string]mark // source -> the number of its dump
	dumps []*mediator.ParsedDump
	keep  func(source string) bool
}

// state returns the shards' cached dumps, fresh or not.
func (c *factsCache) state(shards []*Shard) factsState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := factsState{marks: map[string]mark{}}
	for _, sh := range shards {
		s := c.shard(sh.ID)
		for _, d := range s.dumps {
			st.marks[d.Source] = mark{s.epoch, d.Stamp}
		}
		st.dumps = append(st.dumps, s.dumps...)
	}
	return st
}

// replica is the router's materialised replica: the replica mediator's
// static program over the shards' cached dumps, with the result it
// produced. Every gather moves it to the state it reads, on the request
// path. Lock order: facts cache, then write, then mu, then the replica
// mediator's own lock. write is never awaited while holding mu, and no
// lock is held across a shard call.
type replica struct {
	// write is held by the one move in progress: it serialises the
	// moves. It is a one-slot channel so that a request waiting for it
	// can give up when its context ends.
	write chan struct{}
	fb    *mediator.FactBase // guarded by write

	// mu guards the published result and the dumps it reflects; both
	// change under write and mu.
	mu   sync.RWMutex
	res  *datalog.Result
	held factsState
}

func newReplica() *replica { return &replica{write: make(chan struct{}, 1)} }

// target is st plus, for each source st.keep names and st lacks, the
// dump the published result reflects. The caller holds mu or write.
func (r *replica) target(st factsState) factsState {
	if st.keep == nil {
		return st
	}
	out := factsState{marks: maps.Clone(st.marks), dumps: slices.Clone(st.dumps)}
	for _, d := range r.held.dumps {
		if _, ok := st.marks[d.Source]; !ok && st.keep(d.Source) {
			out.marks[d.Source] = r.held.marks[d.Source]
			out.dumps = append(out.dumps, d)
		}
	}
	return out
}

// covers reports whether the published result reflects st, a target:
// it was built from the same sources' dumps, none older than st's, in
// the same epochs. The caller holds mu or write.
func (r *replica) covers(st factsState) bool {
	if r.res == nil || len(r.held.marks) != len(st.marks) {
		return false
	}
	for src, m := range st.marks {
		if h, ok := r.held.marks[src]; !ok || h.epoch != m.epoch || h.stamp < m.stamp {
			return false
		}
	}
	return true
}

// get returns the published result if it covers st, else nil. A
// published result is never written, so the caller may read it after.
func (r *replica) get(st factsState) *datalog.Result {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.covers(r.target(st)) {
		return nil
	}
	return r.res
}

// advance moves the replica to st unless another move already covered
// it, returns the result that covers st, and reports whether it
// patched the replica or rebuilt it. Only the wait for another
// request's move follows ctx: the move itself runs to completion or
// timeout whatever the caller does, since the replica is shared. After
// a failed move the next one rebuilds.
func (r *replica) advance(ctx context.Context, rep *mediator.Mediator, st factsState, timeout time.Duration) (res *datalog.Result, patched, rebuilt bool, err error) {
	select {
	case r.write <- struct{}{}:
	case <-ctx.Done():
		return nil, false, false, ctx.Err()
	}
	defer func() { <-r.write }()
	st = r.target(st)
	if r.covers(st) {
		return r.res, false, false, nil
	}
	mctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), timeout)
	defer cancel()
	r.fb, rebuilt, err = rep.MoveFactBase(mctx, r.fb, st.dumps)
	if err != nil {
		return nil, false, false, err
	}
	r.mu.Lock()
	r.res, r.held = r.fb.Result(), st
	r.mu.Unlock()
	return r.res, !rebuilt, rebuilt, nil
}
