package datalog

// Term interning: a process-wide table mapping ground terms to dense
// uint32 IDs. Relations store rows as flat []uint32 (see store.go), so
// tuple equality, uniqueness keys and index probes are integer
// operations instead of string building over term keys. The table also
// caches each term's nesting depth, turning the MaxTermDepth check on
// derived facts into an array load.
//
// The table is append-only and shared by every engine in the process:
// IDs are canonical (two equal terms always intern to the same ID), so
// rows can be compared across stores — Store.Equal, DRed's old-vs-new
// joins and the index probes all compare raw IDs. Interning is
// concurrency-safe: the key→ID maps are sharded under RWMutexes and the
// ID→term blocks are published through an atomic spine, so the hot
// read paths (termOf, depthOf, lookupID) never contend with writers.
// The table only grows; for the mediator's workloads the universe of
// distinct ground terms is bounded by the data, which keeps this a
// non-issue in practice (see DESIGN.md, "Compiled evaluation & storage
// layout").

import (
	"sync"
	"sync/atomic"

	"modelmed/internal/term"
)

const (
	internShardCount = 64
	internBlockBits  = 12
	internBlockSize  = 1 << internBlockBits
)

// unboundID marks an unassigned register in the compiled executor. It
// is never a valid term ID in practice (interning 2^32-1 distinct terms
// would exhaust memory long before).
const unboundID = ^uint32(0)

// internBlock is one fixed-size chunk of the ID→term mapping. Blocks
// are never moved once published, so a reader holding an ID can resolve
// it without locks.
type internBlock struct {
	terms  [internBlockSize]term.Term
	depths [internBlockSize]int32
}

type internShard struct {
	mu  sync.RWMutex
	ids map[string]uint32 // term key → ID
}

type internTable struct {
	shards [internShardCount]internShard

	// mu guards next and spine growth; entry writes for a fresh ID
	// happen under it, before the ID escapes via the shard map.
	mu    sync.Mutex
	next  uint32
	spine atomic.Pointer[[]*internBlock]
}

var interner = func() *internTable {
	t := &internTable{}
	for i := range t.shards {
		t.shards[i].ids = make(map[string]uint32, 64)
	}
	blocks := make([]*internBlock, 0, 16)
	t.spine.Store(&blocks)
	return t
}()

func internShardOf(key string) *internShard {
	// FNV-1a over the canonical term key.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &interner.shards[h&(internShardCount-1)]
}

// internTerm returns the canonical ID for the ground term t, assigning
// one if t has not been seen before.
func internTerm(t term.Term) uint32 {
	key := t.Key()
	sh := internShardOf(key)
	sh.mu.RLock()
	id, ok := sh.ids[key]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.ids[key]; ok {
		return id
	}
	id = interner.assign(t)
	sh.ids[key] = id
	return id
}

// lookupID returns the ID of t if it has ever been interned. A miss
// proves t is absent from every relation (rows only hold interned IDs),
// which lets probes fail without assigning IDs to query-only constants.
func lookupID(t term.Term) (uint32, bool) { return lookupKey(t.Key()) }

// lookupKey is lookupID by the term's key.
func lookupKey(key string) (uint32, bool) {
	sh := internShardOf(key)
	sh.mu.RLock()
	id, ok := sh.ids[key]
	sh.mu.RUnlock()
	return id, ok
}

// assign allocates the next ID and records the term. Called with the
// owning shard's write lock held; the entry write completes before the
// ID becomes visible through the shard map, and the atomic spine store
// publishes any new block before that.
func (tb *internTable) assign(t term.Term) uint32 {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	id := tb.next
	tb.next++
	blocks := *tb.spine.Load()
	bi := int(id >> internBlockBits)
	if bi == len(blocks) {
		grown := make([]*internBlock, bi+1)
		copy(grown, blocks)
		grown[bi] = &internBlock{}
		tb.spine.Store(&grown)
		blocks = grown
	}
	b := blocks[bi]
	off := id & (internBlockSize - 1)
	b.terms[off] = t
	b.depths[off] = int32(termDepth(t))
	return id
}

// termOf resolves an interned ID back to its term. Lock-free.
func termOf(id uint32) term.Term { return *termAt(id) }

// termAt returns where the table holds the interned term of id. Blocks
// never move and an entry is never rewritten, so the pointer stays
// valid, and its term unchanged, for the life of the process.
func termAt(id uint32) *term.Term {
	blocks := *interner.spine.Load()
	return &blocks[id>>internBlockBits].terms[id&(internBlockSize-1)]
}

// depthOf returns the cached nesting depth of the interned term.
func depthOf(id uint32) int32 {
	blocks := *interner.spine.Load()
	return blocks[id>>internBlockBits].depths[id&(internBlockSize-1)]
}

// internRow appends the IDs of the ground tuple ts to dst.
func internRow(ts []term.Term, dst []uint32) []uint32 {
	for _, t := range ts {
		dst = append(dst, internTerm(t))
	}
	return dst
}

// lookupRow appends the IDs of ts to dst, reporting false if any term
// has never been interned (and therefore cannot be stored anywhere).
func lookupRow(ts []term.Term, dst []uint32) ([]uint32, bool) {
	for _, t := range ts {
		id, ok := lookupID(t)
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// termsOfIDs materializes a fresh term slice for an ID row.
func termsOfIDs(ids []uint32) []term.Term {
	out := make([]term.Term, len(ids))
	for i, id := range ids {
		out[i] = termOf(id)
	}
	return out
}
