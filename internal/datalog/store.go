package datalog

import (
	"maps"
	"sort"

	"modelmed/internal/term"
)

// segment is one run of ground tuples stored as flat interned term IDs:
// row i occupies ids[i*arity : (i+1)*arity]. A uniqueness index over the
// packed ID bytes answers membership without allocating, and one
// integer-keyed posting map per argument position answers index probes.
type segment struct {
	arity   int
	n       int
	ids     []uint32             // flat rows, n*arity IDs
	rowKeys []string             // packed-ID key of each row (shares backing with tupIdx keys)
	tupIdx  map[string]int32     // packed row → row index
	posIdx  []map[uint32][]int32 // position → value ID → row indices
}

// newSegment returns an empty segment sized for about rows tuples.
func newSegment(arity, rows int) *segment {
	g := &segment{
		arity:  arity,
		tupIdx: make(map[string]int32, rows),
		posIdx: make([]map[uint32][]int32, arity),
	}
	if rows > 0 {
		g.ids = make([]uint32, 0, rows*arity)
		g.rowKeys = make([]string, 0, rows)
	}
	for i := range g.posIdx {
		g.posIdx[i] = make(map[uint32][]int32)
	}
	return g
}

// row returns the ID row at index i (aliases the segment's storage).
func (g *segment) row(i int) []uint32 {
	return g.ids[i*g.arity : (i+1)*g.arity]
}

// add appends a row the segment does not hold; key is its packed form.
func (g *segment) add(row []uint32, key string) {
	idx := int32(g.n)
	g.tupIdx[key] = idx
	g.rowKeys = append(g.rowKeys, key)
	g.ids = append(g.ids, row...)
	for pos, id := range row {
		m := g.posIdx[pos]
		m[id] = append(m[id], idx)
	}
	g.n++
}

// deleteAt removes row idx: the last row is swapped into the vacated
// slot and the positional indexes are patched in place, so row order is
// not preserved across deletions (set semantics are unaffected; stable
// output goes through SortedRows).
func (g *segment) deleteAt(idx int) {
	last := g.n - 1
	for pos, id := range g.row(idx) {
		bucket := removeIdxValue(g.posIdx[pos][id], int32(idx))
		if len(bucket) == 0 {
			delete(g.posIdx[pos], id)
		} else {
			g.posIdx[pos][id] = bucket
		}
	}
	delete(g.tupIdx, g.rowKeys[idx])
	if idx != last {
		moved := g.row(last)
		copy(g.row(idx), moved)
		for pos, id := range moved {
			replaceIdxValue(g.posIdx[pos][id], int32(last), int32(idx))
		}
		mk := g.rowKeys[last]
		g.rowKeys[idx] = mk
		g.tupIdx[mk] = int32(idx)
	}
	g.ids = g.ids[:last*g.arity]
	g.rowKeys[last] = ""
	g.rowKeys = g.rowKeys[:last]
	g.n = last
}

// compact rewrites the segment without the rows marked dead, rebuilding
// the positional indexes in one linear pass.
func (g *segment) compact(dead []bool) {
	w := 0
	for i := 0; i < g.n; i++ {
		if dead[i] {
			delete(g.tupIdx, g.rowKeys[i])
			continue
		}
		if w != i {
			copy(g.row(w), g.row(i))
			k := g.rowKeys[i]
			g.rowKeys[w] = k
			g.tupIdx[k] = int32(w)
		}
		w++
	}
	for i := w; i < g.n; i++ {
		g.rowKeys[i] = ""
	}
	g.rowKeys = g.rowKeys[:w]
	g.ids = g.ids[:w*g.arity]
	g.n = w
	for pos := range g.posIdx {
		g.posIdx[pos] = make(map[uint32][]int32, len(g.posIdx[pos]))
	}
	for i := 0; i < g.n; i++ {
		for pos, id := range g.row(i) {
			m := g.posIdx[pos]
			m[id] = append(m[id], int32(i))
		}
	}
}

// clone deep-copies the segment, preserving row order.
func (g *segment) clone() *segment {
	ng := &segment{
		arity:   g.arity,
		n:       g.n,
		ids:     append([]uint32(nil), g.ids...),
		rowKeys: append([]string(nil), g.rowKeys...),
		tupIdx:  maps.Clone(g.tupIdx),
		posIdx:  make([]map[uint32][]int32, g.arity),
	}
	for pos, idx := range g.posIdx {
		ni := make(map[uint32][]int32, len(idx))
		for id, rows := range idx {
			ni[id] = append([]int32(nil), rows...)
		}
		ng.posIdx[pos] = ni
	}
	return ng
}

// Relation stores the ground tuples of one predicate. The layout is one
// base segment plus a small overlay, so that a copy taken for
// copy-on-write costs what has changed since the base was built, not
// what the relation holds:
//
//   - A relation that owns its base (shared == false) mutates the base in
//     place and has no overlay. Every relation starts out this way, and a
//     cold evaluation never leaves it.
//   - clone returns a relation that shares the base, which from then on
//     nobody writes. The clone's insertions go to a private overlay
//     segment (over) and its deletions of base rows to a private
//     tombstone set (dead); overlay rows are deleted from the overlay
//     itself. Cloning a clone copies only the overlay and the tombstones.
//   - When overlay plus tombstones pass 1/foldFraction of the base, the
//     live rows are folded into a fresh base the relation owns.
//
// Readers see the live rows — base rows that are not tombstoned, then
// overlay rows — through has, probe, each and eachAt; nothing outside
// this file looks at a segment. Terms are materialized on demand (Rows,
// SortedRows).
type Relation struct {
	base   *segment
	shared bool               // base is shared with another relation and immutable
	over   *segment           // rows appended since the base was shared (nil = none)
	dead   map[int32]struct{} // base rows deleted since the base was shared
}

// The overlay is folded into a fresh private base once it holds more
// than foldMinOverlay entries and more than 1/foldFraction of the base:
// a fold costs the whole relation, so it must be paid for by that many
// changes, and below the floor a copy of the overlay is cheaper than
// the fold it would avoid.
const (
	foldFraction   = 8
	foldMinOverlay = 16
)

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{base: newSegment(arity, 0)}
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.base.arity }

// overLen is the number of overlay rows.
func (r *Relation) overLen() int {
	if r.over == nil {
		return 0
	}
	return r.over.n
}

// Len returns the number of stored tuples.
func (r *Relation) Len() int { return r.base.n - len(r.dead) + r.overLen() }

// tupleKey builds the canonical term-key encoding of a tuple. The
// storage layer no longer keys on it (rows are keyed by packed IDs),
// but it remains the stable cross-structure tuple encoding used by
// tests and the aggregate grouping path.
func tupleKey(ts []term.Term) string {
	if len(ts) == 1 {
		return ts[0].Key()
	}
	n := 0
	for _, t := range ts {
		n += len(t.Key())
	}
	b := make([]byte, 0, n)
	for _, t := range ts {
		b = append(b, t.Key()...)
	}
	return string(b)
}

// packRow appends the little-endian byte encoding of the ID row to dst.
// Map lookups with string(packRow(buf[:0], row)) compile to no-copy
// probes, so Contains/Insert duplicate checks do not allocate.
func packRow(dst []byte, row []uint32) []byte {
	for _, id := range row {
		dst = append(dst, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return dst
}

// clone returns a relation with the same rows that can be mutated
// independently. It shares r's base and copies only the overlay and the
// tombstones, and it does not write to r, so concurrent holders of a
// shared relation may each clone it. r must not be mutated afterwards
// (Store's copy-on-write marks guarantee that).
func (r *Relation) clone() *Relation {
	nr := &Relation{base: r.base, shared: true}
	if r.overLen() > 0 {
		nr.over = r.over.clone()
	}
	if len(r.dead) > 0 {
		nr.dead = maps.Clone(r.dead)
	}
	return nr
}

func (r *Relation) isDead(idx int32) bool {
	if len(r.dead) == 0 {
		return false
	}
	_, dead := r.dead[idx]
	return dead
}

// has reports whether the packed row is live.
func (r *Relation) has(packed []byte) bool {
	if idx, ok := r.base.tupIdx[string(packed)]; ok && !r.isDead(idx) {
		return true
	}
	if r.over != nil {
		_, ok := r.over.tupIdx[string(packed)]
		return ok
	}
	return false
}

// foldIfLarge folds the overlay into a fresh private base once it has
// outgrown its share of the base. Row order — base rows, then overlay
// rows — is preserved.
func (r *Relation) foldIfLarge() {
	if !r.shared {
		return
	}
	o := len(r.dead) + r.overLen()
	if o <= foldMinOverlay || o*foldFraction <= r.base.n {
		return
	}
	nb := newSegment(r.base.arity, r.Len())
	for i := 0; i < r.base.n; i++ {
		if !r.isDead(int32(i)) {
			nb.add(r.base.row(i), r.base.rowKeys[i])
		}
	}
	for i := 0; i < r.overLen(); i++ {
		nb.add(r.over.row(i), r.over.rowKeys[i])
	}
	r.base, r.shared, r.over, r.dead = nb, false, nil, nil
}

// Insert adds the ground tuple ts, returning true if it was new.
func (r *Relation) Insert(ts []term.Term) bool {
	var buf [16]uint32
	return r.InsertIDs(internRow(ts, buf[:0]))
}

// InsertIDs adds a tuple given as interned IDs, returning true if new.
// The row slice is copied, not retained. A new row always goes last in
// iteration order, even when a tombstoned copy of it sits in the shared
// base: runGroups relies on a clone's new rows following its old ones.
func (r *Relation) InsertIDs(row []uint32) bool {
	var kb [64]byte
	packed := packRow(kb[:0], row)
	if r.has(packed) {
		return false
	}
	if !r.shared {
		r.base.add(row, string(packed))
		return true
	}
	if r.over == nil {
		r.over = newSegment(r.base.arity, 0)
	}
	r.over.add(row, string(packed))
	r.foldIfLarge()
	return true
}

// Contains reports whether the ground tuple ts is stored.
func (r *Relation) Contains(ts []term.Term) bool {
	var buf [16]uint32
	row, ok := lookupRow(ts, buf[:0])
	return ok && r.ContainsIDs(row)
}

// ContainsIDs reports whether the ID tuple is stored.
func (r *Relation) ContainsIDs(row []uint32) bool {
	var kb [64]byte
	return r.has(packRow(kb[:0], row))
}

// Delete removes the ground tuple ts, returning true if it was present.
// Large deletion waves should go through DeleteIDsBatch.
func (r *Relation) Delete(ts []term.Term) bool {
	var buf [16]uint32
	row, ok := lookupRow(ts, buf[:0])
	return ok && r.DeleteIDs(row)
}

// DeleteIDs removes the ID tuple, returning true if it was present.
func (r *Relation) DeleteIDs(row []uint32) bool {
	ok := r.deleteRow(row)
	if ok {
		r.foldIfLarge()
	}
	return ok
}

// deleteRow removes one live row without folding: a row of a shared
// base is tombstoned, any other row is swap-deleted from its segment.
func (r *Relation) deleteRow(row []uint32) bool {
	var kb [64]byte
	packed := packRow(kb[:0], row)
	if idx, ok := r.base.tupIdx[string(packed)]; ok && !r.isDead(idx) {
		if !r.shared {
			r.base.deleteAt(int(idx))
			return true
		}
		if r.dead == nil {
			r.dead = make(map[int32]struct{})
		}
		r.dead[idx] = struct{}{}
		return true
	}
	if r.over != nil {
		if idx, ok := r.over.tupIdx[string(packed)]; ok {
			r.over.deleteAt(int(idx))
			return true
		}
	}
	return false
}

// Batch deletions on an owned base switch from per-row swap deletion to
// a single compaction pass once the wave is large relative to the
// relation: swap deletion scans index buckets linearly per row, which
// turns quadratic when many deleted rows share an index value (the DRed
// overdeletion pattern). On a shared base a deletion is a tombstone and
// touches no bucket, so the wave is applied row by row and folded once
// at the end.
const (
	compactMinWave = 64
	compactFactor  = 8 // compact when wave*compactFactor >= rows
)

// DeleteIDsBatch removes the given ID tuples, returning how many were
// present. Rows absent from the relation are ignored.
func (r *Relation) DeleteIDsBatch(rows [][]uint32) int {
	removed := 0
	if r.shared || len(rows) < compactMinWave || len(rows)*compactFactor < r.base.n {
		for _, row := range rows {
			if r.deleteRow(row) {
				removed++
			}
		}
		r.foldIfLarge()
		return removed
	}
	dead := make([]bool, r.base.n)
	var kb [64]byte
	for _, row := range rows {
		if idx, ok := r.base.tupIdx[string(packRow(kb[:0], row))]; ok && !dead[idx] {
			dead[idx] = true
			removed++
		}
	}
	if removed > 0 {
		r.base.compact(dead)
	}
	return removed
}

// removeIdxValue removes the element equal to v (unordered).
func removeIdxValue(s []int32, v int32) []int32 {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// replaceIdxValue rewrites the element equal to from with to.
func replaceIdxValue(s []int32, from, to int32) {
	for i, x := range s {
		if x == from {
			s[i] = to
			return
		}
	}
}

// rowSet is the answer of an index probe: candidate row indices into
// the base (tombstoned rows included, eachAt skips them) and into the
// overlay.
type rowSet struct {
	base, over []int32
}

// size is the number of candidates, the selectivity estimate both
// evaluators pick their probe by.
func (rs rowSet) size() int { return len(rs.base) + len(rs.over) }

// probe returns the rows whose value at position pos is id.
func (r *Relation) probe(pos int, id uint32) rowSet {
	rs := rowSet{base: r.base.posIdx[pos][id]}
	if r.over != nil {
		rs.over = r.over.posIdx[pos][id]
	}
	return rs
}

// eachAt calls fn with the ID row of every live candidate of rs, base
// rows first, stopping at the first error. The row aliases the
// relation's storage; the relation must not be mutated during the walk.
func (r *Relation) eachAt(rs rowSet, fn func(row []uint32) error) error {
	for _, ri := range rs.base {
		if r.isDead(ri) {
			continue
		}
		if err := fn(r.base.row(int(ri))); err != nil {
			return err
		}
	}
	for _, ri := range rs.over {
		if err := fn(r.over.row(int(ri))); err != nil {
			return err
		}
	}
	return nil
}

// each is eachAt over every live row: base rows in order, then overlay
// rows in order.
func (r *Relation) each(fn func(row []uint32) error) error {
	return r.eachFrom(0, fn)
}

// eachFrom is each without the first skip live rows. Rows are only ever
// appended at the end of this order, so for a clone that has inserted
// and never deleted, eachFrom(n) with n the length at clone time walks
// exactly the rows the clone added.
func (r *Relation) eachFrom(skip int, fn func(row []uint32) error) error {
	i := 0
	if len(r.dead) == 0 && skip > 0 {
		i = min(skip, r.base.n)
		skip -= i
	}
	for ; i < r.base.n; i++ {
		if r.isDead(int32(i)) {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		if err := fn(r.base.row(i)); err != nil {
			return err
		}
	}
	for i := skip; i < r.overLen(); i++ {
		if err := fn(r.over.row(i)); err != nil {
			return err
		}
	}
	return nil
}

// Rows returns the stored tuples materialized from IDs, in iteration
// order. The slice is freshly built on every call.
func (r *Relation) Rows() [][]term.Term {
	n, arity := r.Len(), r.base.arity
	rows := make([][]term.Term, 0, n)
	flat := make([]term.Term, n*arity)
	_ = r.each(func(ids []uint32) error {
		sub := flat[:arity:arity]
		flat = flat[arity:]
		fillTerms(sub, ids)
		rows = append(rows, sub)
		return nil
	})
	return rows
}

// fillTerms materializes an ID row into dst (len(dst) == len(ids)).
func fillTerms(dst []term.Term, ids []uint32) {
	for k, id := range ids {
		dst[k] = termOf(id)
	}
}

// Select returns the rows whose value at position pos equals t.
func (r *Relation) Select(pos int, t term.Term) [][]term.Term {
	id, ok := lookupID(t)
	if !ok {
		return nil
	}
	var out [][]term.Term
	_ = r.eachAt(r.probe(pos, id), func(ids []uint32) error {
		out = append(out, termsOfIDs(ids))
		return nil
	})
	return out
}

// SortedRows returns a copy of the tuples in deterministic order, for
// stable output in tests and tools.
func (r *Relation) SortedRows() [][]term.Term {
	out := r.Rows()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// Store maps predicate keys ("name/arity") to relations. Clone is
// copy-on-write at relation granularity: cloned stores share relation
// objects until one side mutates a shared relation, at which point the
// mutating store takes its own clone of just that relation (which in
// turn shares the relation's base segment, see Relation). Shared
// relations are therefore immutable, which is what makes a clone safe
// to hand to a concurrently running reader.
type Store struct {
	rels map[string]*Relation
	cow  map[string]struct{} // relations shared with another store
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{rels: make(map[string]*Relation)} }

// Rel returns the relation for the predicate key, or nil if absent.
// The returned relation is read-only for holders of a cloned store;
// mutations must go through the Store methods.
func (s *Store) Rel(key string) *Relation { return s.rels[key] }

// mutable returns the relation for key, cloning it first if it is
// shared with another store. Returns nil if absent.
func (s *Store) mutable(key string) *Relation {
	r := s.rels[key]
	if r == nil {
		return nil
	}
	if _, shared := s.cow[key]; shared {
		r = r.clone()
		s.rels[key] = r
		delete(s.cow, key)
	}
	return r
}

// setRel replaces the relation for key outright.
func (s *Store) setRel(key string, r *Relation) {
	s.rels[key] = r
	if s.cow != nil {
		delete(s.cow, key)
	}
}

// Ensure returns a mutable relation for the key, creating it with the
// given arity if absent.
func (s *Store) Ensure(key string, arity int) *Relation {
	if r := s.mutable(key); r != nil {
		return r
	}
	r := NewRelation(arity)
	s.rels[key] = r
	return r
}

// Insert adds a ground fact, returning true if new.
func (s *Store) Insert(pred string, args []term.Term) bool {
	return s.Ensure(PredKey(pred, len(args)), len(args)).Insert(args)
}

// Contains reports whether the ground fact is present.
func (s *Store) Contains(pred string, args []term.Term) bool {
	r := s.rels[PredKey(pred, len(args))]
	return r != nil && r.Contains(args)
}

// Delete removes a ground fact, returning true if it was present.
func (s *Store) Delete(pred string, args []term.Term) bool {
	return s.DeleteKey(PredKey(pred, len(args)), args)
}

// DeleteKey removes a ground tuple addressed by predicate key.
func (s *Store) DeleteKey(key string, row []term.Term) bool {
	r := s.rels[key]
	if r == nil {
		return false
	}
	var buf [16]uint32
	ids, ok := lookupRow(row, buf[:0])
	if !ok || !r.ContainsIDs(ids) {
		return false
	}
	return s.mutable(key).DeleteIDs(ids)
}

// DeleteKeyIDs removes an ID tuple addressed by predicate key.
func (s *Store) DeleteKeyIDs(key string, row []uint32) bool {
	r := s.rels[key]
	if r == nil || !r.ContainsIDs(row) {
		return false
	}
	return s.mutable(key).DeleteIDs(row)
}

// DeleteKeyIDsBatch removes the given ID tuples from the keyed
// relation, returning how many were present. Large waves compact the
// relation in one pass (see Relation.DeleteIDsBatch).
func (s *Store) DeleteKeyIDsBatch(key string, rows [][]uint32) int {
	r := s.rels[key]
	if r == nil {
		return 0
	}
	present := false
	for _, row := range rows {
		if r.ContainsIDs(row) {
			present = true
			break
		}
	}
	if !present {
		return 0
	}
	return s.mutable(key).DeleteIDsBatch(rows)
}

// ContainsKey reports whether the tuple addressed by predicate key is
// present.
func (s *Store) ContainsKey(key string, row []term.Term) bool {
	r := s.rels[key]
	return r != nil && r.Contains(row)
}

// ContainsKeyIDs reports whether the ID tuple addressed by predicate
// key is present.
func (s *Store) ContainsKeyIDs(key string, row []uint32) bool {
	r := s.rels[key]
	return r != nil && r.ContainsIDs(row)
}

// InsertKey adds a ground tuple addressed by predicate key, returning
// true if new.
func (s *Store) InsertKey(key string, arity int, row []term.Term) bool {
	return s.Ensure(key, arity).Insert(row)
}

// InsertKeyIDs adds an ID tuple addressed by predicate key, returning
// true if new.
func (s *Store) InsertKeyIDs(key string, arity int, row []uint32) bool {
	return s.Ensure(key, arity).InsertIDs(row)
}

// Each calls fn for every stored fact, predicates in sorted key order
// and rows in insertion order.
func (s *Store) Each(fn func(key string, arity int, row []term.Term)) {
	for _, k := range s.Keys() {
		r := s.rels[k]
		for _, row := range r.Rows() {
			fn(k, r.Arity(), row)
		}
	}
}

// EachIDs is Each over interned ID rows. The row slice aliases the
// relation's storage and is only valid until its next mutation; copy it
// to retain.
func (s *Store) EachIDs(fn func(key string, arity int, row []uint32)) {
	for _, k := range s.Keys() {
		r := s.rels[k]
		_ = r.each(func(row []uint32) error {
			fn(k, r.Arity(), row)
			return nil
		})
	}
}

// Equal reports whether the two stores hold exactly the same facts.
func (s *Store) Equal(t *Store) bool {
	return s.isSubset(t) && t.isSubset(s)
}

func (s *Store) isSubset(t *Store) bool {
	for k, r := range s.rels {
		if r.Len() == 0 {
			continue
		}
		tr := t.rels[k]
		if tr == nil || tr.Len() < r.Len() {
			return false
		}
		if tr == r {
			continue // shared via copy-on-write
		}
		missing := r.each(func(row []uint32) error {
			if !tr.ContainsIDs(row) {
				return errStopMatch
			}
			return nil
		})
		if missing != nil {
			return false
		}
	}
	return true
}

// Count returns the number of facts for the predicate key (0 if absent).
func (s *Store) Count(key string) int {
	if r := s.rels[key]; r != nil {
		return r.Len()
	}
	return 0
}

// Size returns the total number of stored facts across all predicates.
func (s *Store) Size() int {
	n := 0
	for _, r := range s.rels {
		n += r.Len()
	}
	return n
}

// Keys returns the predicate keys present, sorted.
func (s *Store) Keys() []string {
	out := make([]string, 0, len(s.rels))
	for k := range s.rels {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Clone returns a copy-on-write clone: both stores share every relation
// until one of them mutates it, at which point the mutating side
// clones that one relation. Cloning is therefore O(relations)
// regardless of fact count — it runs once per Γ step of the
// well-founded path, per stratum group, per Materialize and per
// ApplyDelta, all of which mutate only a fraction of the relations they
// clone. Row order of shared relations is preserved and a clone appends
// its insertions after them (parallel stratum merging relies on this,
// see Relation.eachFrom). Clone must not run concurrently with other
// operations on s.
func (s *Store) Clone() *Store {
	if s.cow == nil {
		s.cow = make(map[string]struct{}, len(s.rels))
	}
	c := &Store{
		rels: maps.Clone(s.rels),
		cow:  make(map[string]struct{}, len(s.rels)),
	}
	if c.rels == nil {
		c.rels = make(map[string]*Relation)
	}
	for k := range s.rels {
		s.cow[k] = struct{}{}
		c.cow[k] = struct{}{}
	}
	return c
}

// MergeInto inserts every fact of s into dst, returning the number of
// facts that were new to dst.
func (s *Store) MergeInto(dst *Store) int {
	added := 0
	for k, r := range s.rels {
		d := dst.Ensure(k, r.Arity())
		_ = r.each(func(row []uint32) error {
			if d.InsertIDs(row) {
				added++
			}
			return nil
		})
	}
	return added
}
