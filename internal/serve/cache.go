package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"modelmed/internal/mediator"
	"modelmed/internal/obs"
)

// The answer cache. Keys are normalized query renderings (parsed body,
// selected vars), so textual variants of one query share
// an entry. Entries live in per-tenant partitions: a tenant can only
// hit answers its own traffic computed, and one tenant's churn cannot
// evict another's working set (tenant identity is operator-defined, so
// the partition count is bounded — see defaultTenant). Each entry
// records which sources the answer was computed from — queries over
// derived views or unconstrained source positions depend on everything
// and are tracked as global — and its answer carries the stamp of the
// value it was read from (mediator.Stamp). A lookup validates instead
// of anything invalidating: an entry serves while the mediator's
// current value has a result and stamps every source it depends on
// (for a global entry, the whole commit) as the entry's answer does;
// otherwise the lookup drops it. So every way the mediator changes —
// a delta or sync through the handlers, a streamed batch, a direct
// ApplySourceDelta or SyncSources, a program change — reaches the
// cache, and nothing has to report it.
//
// Duplicate concurrent misses collapse into one computation
// (single-flight): the first request becomes the leader and computes
// under an admission slot; followers wait on the leader's result
// without consuming slots. Flights are scoped per tenant, so
// collapsing never leaks an answer (or a failure) across tenants. If
// the leader dies of its *own* context — client gone, per-request
// deadline — a follower whose context is still live does not inherit
// that death: it retries, finding the published answer, joining a
// newer flight, or becoming the new leader under its own context.
// A flight computed before a move is stored under the stamp it read,
// so the next lookup after the move drops it.

type cacheEntry struct {
	key    string
	val    *mediator.Answer // val.Stamp is the stamp it was read at
	deps   []string
	global bool
	elem   *list.Element
}

type flight struct {
	done chan struct{}
	val  *mediator.Answer
	err  error
}

// cachePart is one tenant's entry map + LRU list. Every partition gets
// the full configured capacity.
type cachePart struct {
	entries map[string]*cacheEntry
	lru     *list.List // front = most recently used
}

type answerCache struct {
	stamp func() *mediator.Stamp // the mediator's published stamp
	ctr   *obs.Counters          // counts the stale entries lookups drop

	mu      sync.Mutex
	cap     int
	parts   map[string]*cachePart
	flights map[string]*flight // keyed tenant + "\x00" + query key
}

func newAnswerCache(capacity int, stamp func() *mediator.Stamp, ctr *obs.Counters) *answerCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &answerCache{
		stamp:   stamp,
		ctr:     ctr,
		cap:     capacity,
		parts:   make(map[string]*cachePart),
		flights: make(map[string]*flight),
	}
}

func (c *answerCache) partLocked(tenant string) *cachePart {
	p := c.parts[tenant]
	if p == nil {
		p = &cachePart{entries: make(map[string]*cacheEntry), lru: list.New()}
		c.parts[tenant] = p
	}
	return p
}

// get returns a cached answer from the tenant's partition and bumps
// its recency.
func (c *answerCache) get(tenant, key string) (*mediator.Answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.lookupLocked(tenant, key)
	if e == nil {
		return nil, false
	}
	return e.val, true
}

// lookupLocked returns the tenant's entry for key, bumped to most
// recent, if the published value serves its answer (Stamp.Serves); a
// stale entry is dropped. The stamp is loaded under c.mu, so it is
// never older than an entry inserted before it. Called with c.mu held.
func (c *answerCache) lookupLocked(tenant, key string) *cacheEntry {
	p := c.parts[tenant]
	if p == nil {
		return nil
	}
	e, ok := p.entries[key]
	if !ok {
		return nil
	}
	if !c.stamp().Serves(e.val.Stamp, e.deps, e.global) {
		p.lru.Remove(e.elem)
		delete(p.entries, key)
		c.ctr.Add("serve.cache_entries_dropped", 1)
		return nil
	}
	p.lru.MoveToFront(e.elem)
	return e
}

// outcome classifies how do() produced its answer.
type outcome int

const (
	outcomeHit outcome = iota
	outcomeComputed
	outcomeCollapsed
)

// isCtxError reports whether err is the death of some context — the
// only errors a follower must not inherit from a cancelled leader,
// since they describe the leader's request, not the query.
func isCtxError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// do returns the answer for (tenant, key): from the tenant's cache
// partition, from an in-flight leader's result, or by computing it
// (becoming the leader). compute runs without c.mu held; the caller
// does its own admission inside it.
//
// The loop is the leader-cancellation fix: a follower that watched the
// leader fail with the leader's own context error retries while its
// own context is live, instead of propagating a failure that says
// nothing about the query. By the time the follower re-enters, the
// dead flight is already unlinked (the leader closes done only after
// removing itself), so the retry finds the cache, a newer flight, or
// leadership — it cannot spin on the corpse.
func (c *answerCache) do(ctx context.Context, tenant, key string, deps []string, global bool,
	compute func() (*mediator.Answer, error)) (*mediator.Answer, outcome, error) {
	fk := tenant + "\x00" + key
	for {
		c.mu.Lock()
		if e := c.lookupLocked(tenant, key); e != nil {
			val := e.val
			c.mu.Unlock()
			return val, outcomeHit, nil
		}
		if f, ok := c.flights[fk]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
				if isCtxError(f.err) && ctx.Err() == nil {
					continue
				}
				return f.val, outcomeCollapsed, f.err
			case <-ctx.Done():
				return nil, outcomeCollapsed, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		c.flights[fk] = f
		c.mu.Unlock()

		f.val, f.err = compute()

		// Unlink the flight and publish the answer before waking the
		// followers: a follower that retries after done must observe
		// the world post-flight, or it could rejoin this same corpse
		// forever.
		c.mu.Lock()
		delete(c.flights, fk)
		if f.err == nil {
			c.insertLocked(tenant, key, f.val, deps, global)
		}
		c.mu.Unlock()
		close(f.done)
		return f.val, outcomeComputed, f.err
	}
}

// insertLocked adds an entry to the tenant's partition and evicts past
// capacity. Called with c.mu held.
func (c *answerCache) insertLocked(tenant, key string, val *mediator.Answer, deps []string, global bool) {
	p := c.partLocked(tenant)
	if e, ok := p.entries[key]; ok {
		e.val = val
		p.lru.MoveToFront(e.elem)
		return
	}
	e := &cacheEntry{key: key, val: val, deps: deps, global: global}
	e.elem = p.lru.PushFront(e)
	p.entries[key] = e
	for p.lru.Len() > c.cap {
		back := p.lru.Back()
		old := back.Value.(*cacheEntry)
		p.lru.Remove(back)
		delete(p.entries, old.key)
	}
}

// size returns the number of cached entries across all partitions.
func (c *answerCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	for _, p := range c.parts {
		n += len(p.entries)
	}
	return n
}
