package cluster

// Router-side caches. The answer cache is a single-partition LRU keyed
// as the serving layer keys its own (per-source dependency sets, global
// entries), but it invalidates: the deltas routed through the router
// drop the entries over their source, and a generation counter guards
// stale inserts. The serving layer validates against the versions its
// mediator publishes instead; the router sees no shard's versions until
// the shards publish a change feed. The router has no per-tenant
// isolation duty (each shard enforces its own) and no single-flight
// (the shards behind it already collapse duplicate work). The facts cache keeps each shard's
// last shipped dump in parsed form, so consecutive gather queries don't
// re-pull an unchanged shard and a re-shipped dump costs a parse of its
// changed lines; a delta routed to a shard marks exactly that shard's
// dump stale. The replica is the materialised result over the dumps of
// every shard, patched with ApplyDelta as re-shipped dumps arrive.

import (
	"container/list"
	"context"
	"sync"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/mediator"
)

type cacheEntry struct {
	key    string
	resp   QueryResponse
	deps   map[string]bool // source names; nil+!global = never invalidated
	global bool
}

type answerCache struct {
	mu      sync.Mutex
	max     int
	gen     uint64
	ll      *list.List // front = most recent
	entries map[string]*list.Element
}

func newAnswerCache(max int) *answerCache {
	if max <= 0 {
		max = 1024
	}
	return &answerCache{max: max, ll: list.New(), entries: map[string]*list.Element{}}
}

// get returns the cached response and the generation observed, for a
// later generation-guarded put.
func (c *answerCache) get(key string) (QueryResponse, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return QueryResponse{}, c.gen, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, c.gen, true
}

// put inserts unless an invalidation ran since gen was observed — an
// answer computed against pre-delta shards must not outlive the delta.
func (c *answerCache) put(key string, resp QueryResponse, deps []string, global bool, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.resp = resp
		return
	}
	e := &cacheEntry{key: key, resp: resp, global: global}
	if len(deps) > 0 {
		e.deps = make(map[string]bool, len(deps))
		for _, d := range deps {
			e.deps[d] = true
		}
	}
	c.entries[key] = c.ll.PushFront(e)
	for len(c.entries) > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// invalidateSource drops entries depending on the source (and global
// ones) and bumps the generation.
func (c *answerCache) invalidateSource(source string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	var dropped int
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.global || e.deps[source] {
			c.ll.Remove(el)
			delete(c.entries, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// invalidateAll drops everything and bumps the generation.
func (c *answerCache) invalidateAll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	dropped := len(c.entries)
	c.ll.Init()
	c.entries = map[string]*list.Element{}
	return dropped
}

func (c *answerCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// factsCache keeps each shard's last shipped dump, parsed. A fresh dump
// serves gathers without a shard call. A delta routed to a shard bumps
// that shard's generation and marks its dump stale; the stale dump
// stays as the base the next re-ship is parsed against. A put never
// replaces a dump shipped under a newer generation, and a dump shipped
// across a drop is kept but not fresh, so a fetch racing a delta cannot
// pass the pre-delta dump off as fresh. Every dump put gets the shard's
// next sequence number, which orders two dumps even within one
// generation.
type factsCache struct {
	mu     sync.Mutex
	shards map[string]*shardFacts
}

type shardFacts struct {
	gen     uint64                 // bumped by every drop
	shipped uint64                 // the generation dumps were shipped under
	seq     uint64                 // bumped by every put that replaced dumps
	dumps   []*mediator.ParsedDump // last shipped dump (nil before the first)
	fresh   bool                   // no drop since dumps were shipped
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

// get returns the shard's cached dump (the parse base when it is not
// fresh) and the generation observed, for a later put.
func (c *factsCache) get(shard string) (dumps []*mediator.ParsedDump, gen uint64, fresh bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shard(shard)
	return s.dumps, s.gen, s.fresh
}

// put stores dumps shipped after generation gen was observed.
func (c *factsCache) put(shard string, dumps []*mediator.ParsedDump, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shard(shard)
	if gen < s.shipped {
		return // a later ship's dump is in
	}
	s.dumps, s.shipped, s.fresh = dumps, gen, gen == s.gen
	s.seq++
}

func (c *factsCache) drop(shard string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shard(shard)
	s.gen++
	s.fresh = false
}

func (c *factsCache) dropAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		s.gen++
		s.fresh = false
	}
}

// factsState is the cached dumps of a set of shards at one moment.
type factsState struct {
	seqs  map[string]uint64 // shard -> sequence number of its dump
	dumps []*mediator.ParsedDump
}

// state returns the shards' cached dumps, fresh or not.
func (c *factsCache) state(shards []*Shard) factsState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := factsState{seqs: make(map[string]uint64, len(shards))}
	for _, sh := range shards {
		s := c.shard(sh.ID)
		st.seqs[sh.ID] = s.seq
		st.dumps = append(st.dumps, s.dumps...)
	}
	return st
}

// replica is the router's materialised replica: the replica mediator's
// static program over every shard's cached dump, with the result it
// produced. A gather that loaded every shard moves it to the facts
// cache's state and reads it; it moves only on the request path. Lock
// order: facts cache, then write, then mu, then the replica mediator's
// own lock. write is never awaited while holding mu, and no lock is
// held across a shard call.
type replica struct {
	// write is held by the one move in progress: it serialises the
	// moves. It is a one-slot channel so that a request waiting for it
	// can give up when its context ends.
	write chan struct{}
	fb    *mediator.FactBase // guarded by write

	// mu guards the published result and, per shard, the sequence number
	// of the dump it reflects; both change under write and mu.
	mu   sync.RWMutex
	res  *datalog.Result
	seqs map[string]uint64
}

func newReplica() *replica { return &replica{write: make(chan struct{}, 1)} }

// covers reports whether the published result reflects st: it was
// built from no older dump of any shard. The caller holds mu or write.
func (r *replica) covers(st factsState) bool {
	if r.res == nil {
		return false
	}
	for id, seq := range st.seqs {
		if seq > r.seqs[id] {
			return false
		}
	}
	return true
}

// read calls fn with the published result under the read lock, if that
// result covers st.
func (r *replica) read(st factsState, fn func(*datalog.Result) error) (ok bool, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.covers(st) {
		return false, nil
	}
	return true, fn(r.res)
}

// advance moves the replica to st unless another move already covered
// it, and reports whether it patched the replica or rebuilt it. Only
// the wait for another request's move follows ctx: the move itself runs
// to completion or timeout whatever the caller does, since the replica
// is shared. After a failed move the next one rebuilds.
func (r *replica) advance(ctx context.Context, rep *mediator.Mediator, st factsState, timeout time.Duration) (patched, rebuilt bool, err error) {
	select {
	case r.write <- struct{}{}:
	case <-ctx.Done():
		return false, false, ctx.Err()
	}
	defer func() { <-r.write }()
	if r.covers(st) {
		return false, false, nil
	}
	mctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), timeout)
	defer cancel()
	r.fb, rebuilt, err = rep.MoveFactBase(mctx, r.fb, st.dumps)
	if err != nil {
		return false, false, err
	}
	r.mu.Lock()
	r.res, r.seqs = r.fb.Result(), st.seqs
	r.mu.Unlock()
	return !rebuilt, rebuilt, nil
}
