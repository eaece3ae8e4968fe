package mediator

// Incremental maintenance of the materialized mediated object base.
// The cached materialization is a datalog Result built from per-source
// fact sets; when one source changes, re-pulling every source and
// re-running the whole program from scratch throws away all the work
// that other sources' facts paid for. Instead the mediator keeps a
// per-source snapshot of what the cache was built from (srcSnapshot)
// and patches the cache through the engine's delta API
// (datalog.Engine.ApplyDelta): deletions delete-and-rederive, additions
// ride the semi-naive machinery.
//
// A source moves from one state to the next through exactly one
// operation, moveSourceLocked: it folds fact and anchor changes into
// the snapshot (refcounting facts other sources share), patches the
// cache, sets the snapshot version, counts the step and emits its one
// WAL record. A move that fails takes its folds back, so it changes
// nothing. The semantic index reads the snapshot's anchors, so a move
// that folds anchors has moved the index too. The entry points only
// decide whether and what to move:
//
//   - ApplySourceDelta (push): the caller states the change; the
//     version does not move.
//   - RefreshSource / SyncSources (pull): read one source through its
//     wrapper (readSource) and diff it against the snapshot; the version
//     is the wrapper's, read before the pull.
//   - ApplyStreamBatch (stream, stream.go): a versioned batch that
//     extends the snapshot version exactly; the version is the batch's.
//   - WAL replay (persist.go): a logged move, re-applied verbatim.
//
// Changes a delta cannot express — new semantic rules, anchors at
// concepts the domain map does not know (which grow the map and hence
// the program) — fall back to a build from scratch over the held
// source states; the report says so (DeltaReport.Full).

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"modelmed/internal/datalog"
	"modelmed/internal/obs"
	"modelmed/internal/persist"
	"modelmed/internal/term"
)

// srcSnapshot records what one source contributed to the cached
// materialization, so the next version of the source can be diffed
// against it and the difference patched into the cache.
type srcSnapshot struct {
	// facts are the ground facts the source contributed (namespaced
	// src_* facts plus global schema facts).
	facts *datalog.Store
	// rules are the source's semantic rules, the non-ground part of its
	// translation; a rule change cannot be patched and forces a full
	// rebuild.
	rules []datalog.Rule
	// anchors are the source's anchor/3 facts in the cached
	// materialization; the semantic index reads them.
	anchors *datalog.Store
	// version is the wrapper's data version at pull time (0 =
	// unversioned; such sources are never auto-synced).
	version uint64
}

func newSrcSnapshot(version uint64) *srcSnapshot {
	return &srcSnapshot{
		facts:   datalog.NewStore(),
		anchors: datalog.NewStore(),
		version: version,
	}
}

// ruleSig fingerprints semantic rules in order.
func ruleSig(rules []datalog.Rule) []string {
	sig := make([]string, len(rules))
	for i, r := range rules {
		sig[i] = r.String()
	}
	return sig
}

// ErrBadDelta marks an ApplySourceDelta or ApplyStreamBatch error as
// the caller's: a fact that is not ground, a src_*/anchor fact whose
// argument 0 names another source, a pushed anchor at a concept the
// domain map does not know, or a source that is not registered.
// Nothing was changed. Every other error means the patch or a rebuild
// failed.
var ErrBadDelta = errors.New("bad source delta")

// DeltaReport describes one incremental maintenance step.
type DeltaReport struct {
	Source string
	// FactsAdded / FactsRemoved count the source-level fact changes
	// (before shared-fact refcounting against other sources).
	FactsAdded   int
	FactsRemoved int
	// AnchorsAdded / AnchorsRemoved count anchor changes.
	AnchorsAdded   int
	AnchorsRemoved int
	// Full reports that the change could not be patched and the cache
	// was built from scratch instead.
	Full bool
	// Stats is the engine-level work of the patch (nil when the change
	// was a no-op or the path was Full).
	Stats *datalog.DeltaStats
}

func (r *DeltaReport) String() string {
	if r.Full {
		return fmt.Sprintf("%s: full rebuild (+%d/-%d facts, +%d/-%d anchors)",
			r.Source, r.FactsAdded, r.FactsRemoved, r.AnchorsAdded, r.AnchorsRemoved)
	}
	s := fmt.Sprintf("%s: +%d/-%d facts, +%d/-%d anchors",
		r.Source, r.FactsAdded, r.FactsRemoved, r.AnchorsAdded, r.AnchorsRemoved)
	if r.Stats != nil {
		s += fmt.Sprintf(" (overdeleted %d, rederived %d, net +%d/-%d)",
			r.Stats.Overdeleted, r.Stats.Rederived, r.Stats.Inserted, r.Stats.Deleted)
	}
	return s
}

// sharedElsewhere reports whether any source other than except also
// contributes the fact. Global schema facts (method signatures, rel
// schemas) are emitted by every source whose model declares them; a
// fact one source withdraws must survive while another still asserts
// it. Called with m.mu held.
func (m *Mediator) sharedElsewhere(except, key string, row []term.Term) bool {
	for name, snap := range m.snaps {
		if name == except {
			continue
		}
		if snap.facts.ContainsKey(key, row) {
			return true
		}
	}
	return false
}

// patchCacheLocked applies a datalog delta to the cached
// materialization, swapping in the patched result. A failed patch
// leaves the cache and its engine as they were. Called with m.mu held;
// sp may be nil.
func (m *Mediator) patchCacheLocked(d *datalog.Delta, sp *obs.Span) (*datalog.DeltaStats, error) {
	if d.Empty() {
		return nil, nil
	}
	// Retarget the long-lived cache engine's tracing at this update's
	// span; its materialize-time span has long ended.
	m.cacheEngine.SetObs(sp, m.counters())
	next, err := m.cacheEngine.ApplyDelta(m.cache, d)
	if err != nil {
		return nil, err
	}
	m.cache = next
	return next.Delta, nil
}

// canPatchLocked reports whether the cached materialization is in a
// state a delta can be applied to. Called with m.mu held.
func (m *Mediator) canPatchLocked(source string) bool {
	return m.cache != nil && m.snaps[source] != nil
}

// fullRebuildLocked builds the cache from scratch and wraps the outcome
// in a Full report. The build reads only the sources the mediator holds
// no state of, and writes a Full marker for each (materializeLocked);
// over held states alone it reads no wrapper and writes no marker.
// Called with m.mu held.
func (m *Mediator) fullRebuildLocked(rep *DeltaReport, sp *obs.Span) (*DeltaReport, error) {
	rep.Full = true
	m.counters().Add("mediator.delta_full_rebuilds", 1)
	sp.SetStr("fallback", "full")
	m.cache = nil
	if _, err := m.materializeLocked(context.Background(), sp); err != nil {
		return nil, err
	}
	return rep, nil
}

// moveSourceLocked is the one operation that moves a source's
// contribution to the cached materialization: it folds the fact and
// anchor changes into snap, patches the cache, sets snap.version to
// toVersion, records the step, and emits its WAL record (suppressed
// during replay). Deletions snap does not hold and additions it
// already holds are skipped; a deleted fact another source still
// asserts leaves the engine alone.
// The WAL record carries only the changes that took effect, so replay
// against the same snapshot state reaches the same engine delta. A
// move that fails unfolds what it folded and returns the error: the
// snapshot, the cache and the log stay as they were. Called with evalMu
// and m.mu held.
func (m *Mediator) moveSourceLocked(s *Source, snap *srcSnapshot, toVersion uint64, adds, dels, anchorAdds, anchorDels []datalog.Rule, sp *obs.Span) (*DeltaReport, error) {
	rec := &persist.WALRecord{Source: s.Name, Version: toVersion}
	d := datalog.NewDelta()
	var stats *datalog.DeltaStats
	var err error
	if rec.Adds, rec.Dels, err = m.foldLocked(s.Name, snap.facts, d, adds, dels); err == nil {
		rec.AnchorAdds, rec.AnchorDels, err = m.foldLocked(s.Name, snap.anchors, d, anchorAdds, anchorDels)
	}
	if err == nil {
		stats, err = m.patchCacheLocked(d, sp)
	}
	if err != nil {
		unfold(snap.facts, rec.Adds, rec.Dels)
		unfold(snap.anchors, rec.AnchorAdds, rec.AnchorDels)
		return nil, fmt.Errorf("mediator: move %s: %w", s.Name, err)
	}
	rep := &DeltaReport{
		Source:         s.Name,
		FactsAdded:     len(rec.Adds),
		FactsRemoved:   len(rec.Dels),
		AnchorsAdded:   len(rec.AnchorAdds),
		AnchorsRemoved: len(rec.AnchorDels),
		Stats:          stats,
	}
	snap.version = toVersion
	m.noteDeltaLocked(rep, sp)
	m.logDeltaLocked(rec)
	return rep, nil
}

// foldLocked folds dels then adds into one snapshot store and the
// engine delta, returning the changes that took effect — on error, the
// ones folded so far. Called with m.mu held.
func (m *Mediator) foldLocked(source string, st *datalog.Store, d *datalog.Delta, adds, dels []datalog.Rule) (effAdds, effDels []datalog.Rule, err error) {
	for _, r := range dels {
		key := datalog.PredKey(r.Head.Pred, len(r.Head.Args))
		if !st.DeleteKey(key, r.Head.Args) {
			continue // the source never contributed it
		}
		effDels = append(effDels, r)
		if m.sharedElsewhere(source, key, r.Head.Args) {
			continue // another source still asserts it
		}
		if err := d.Del(r.Head.Pred, r.Head.Args...); err != nil {
			return effAdds, effDels, err
		}
	}
	for _, r := range adds {
		if !st.Insert(r.Head.Pred, r.Head.Args) {
			continue // already contributed
		}
		effAdds = append(effAdds, r)
		if err := d.Add(r.Head.Pred, r.Head.Args...); err != nil {
			return effAdds, effDels, err
		}
	}
	return effAdds, effDels, nil
}

// unfold takes back what foldLocked folded into st: the effective adds
// and deletions.
func unfold(st *datalog.Store, effAdds, effDels []datalog.Rule) {
	for _, r := range effAdds {
		st.Delete(r.Head.Pred, r.Head.Args)
	}
	for _, r := range effDels {
		st.Insert(r.Head.Pred, r.Head.Args)
	}
}

// checkDeltaFacts refuses, as ErrBadDelta, a change to source that
// carries a non-ground fact or a src_*/anchor fact namespaced to
// another source: argument 0 of those predicates is what partitions
// facts by source, which a sharded router's scatter soundness rests on.
// Global schema facts carry no source and pass.
func checkDeltaFacts(source string, lists ...[]datalog.Rule) error {
	for _, facts := range lists {
		for _, r := range facts {
			if !isGroundFact(r) {
				return fmt.Errorf("%w: %s is not a ground fact", ErrBadDelta, r)
			}
			switch r.Head.Pred {
			case PredSrcObj, PredSrcVal, PredSrcSub, PredSrcTuple, PredAnchor:
				if a := r.Head.Args; len(a) == 0 || a[0].Kind() != term.KindAtom || a[0].Name() != source {
					return fmt.Errorf("%w: %s is not a fact of source %s", ErrBadDelta, r, source)
				}
			}
		}
	}
	return nil
}

// splitAnchors separates the anchor/3 facts of a pushed list from the
// rest.
func splitAnchors(facts []datalog.Rule) (rest, anchors []datalog.Rule) {
	rest = make([]datalog.Rule, 0, len(facts))
	for _, r := range facts {
		if r.Head.Pred == PredAnchor && len(r.Head.Args) == 3 {
			anchors = append(anchors, r)
		} else {
			rest = append(rest, r)
		}
	}
	return rest, anchors
}

// ApplySourceDelta patches the cached materialization under a stated
// change to one source's ground facts: adds and dels are empty-body
// rules in the source's translated vocabulary (src_obj/src_val/
// src_tuple/src_sub namespaced by the source, anchor/3 facts, or
// global schema facts). Anchor facts move the semantic index exactly
// as a streamed batch's anchors do; they last until the source is next
// read through its wrapper (RefreshSource, SyncSources, Invalidate),
// which takes the anchors the wrapper reports. The change is applied
// through the engine's incremental API — derived views update by
// delete-and-rederive instead of a from-scratch run. Without a cache it
// builds one first and then applies the stated change on top (the
// report's Full flag notes the build).
func (m *Mediator) ApplySourceDelta(source string, adds, dels []datalog.Rule) (*DeltaReport, error) {
	sp := m.startSpan("mediator.apply_source_delta")
	defer m.endTrace(sp)
	sp.SetStr("source", source)
	if err := checkDeltaFacts(source, adds, dels); err != nil {
		return nil, fmt.Errorf("mediator: source delta for %s: %w", source, err)
	}
	adds, anchorAdds := splitAnchors(adds)
	dels, anchorDels := splitAnchors(dels)
	for _, r := range slices.Concat(anchorAdds, anchorDels) {
		if !m.dm.HasConcept(r.Head.Args[2].Name()) {
			return nil, fmt.Errorf("mediator: source delta for %s: %w: %s anchors at a concept the domain map does not know",
				source, ErrBadDelta, r)
		}
	}
	// Write side of evalMu: the move changes the snapshot and the cache's
	// engine, so concurrent query evaluation is excluded for its
	// duration.
	m.evalMu.Lock()
	defer m.evalMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.srcs[source]
	if !ok {
		return nil, fmt.Errorf("mediator: %w: source %s not registered", ErrBadDelta, source)
	}
	rebuilt := !m.canPatchLocked(source)
	if rebuilt {
		// No patchable cache yet (cold, or a program change): build it
		// first and then apply the stated change on top.
		if _, err := m.fullRebuildLocked(&DeltaReport{Source: source}, sp); err != nil {
			return nil, err
		}
		if !m.canPatchLocked(source) {
			return nil, fmt.Errorf("mediator: source delta for %s: no snapshot after rebuild", source)
		}
	}
	snap := m.snaps[source]
	rep, err := m.moveSourceLocked(s, snap, snap.version, adds, dels, anchorAdds, anchorDels, sp)
	if err != nil {
		return nil, err
	}
	rep.Full = rebuilt
	return rep, nil
}

// RefreshSource reads one source through its wrapper (readSource) and
// patches the difference into the cached materialization. The
// wrapper's conceptual model is exported again (catching schema
// growth), instance data is fetched through the fault-tolerance guard
// when the layer is enabled (per-source SourceReports merge into
// SourceReports() exactly like a materialize fan-out), and the state
// read is diffed against the snapshot. Rule changes or anchors at
// concepts the domain map does not know force a full rebuild, which
// reads the source again. A source that is down keeps the stale cache
// and returns the error.
func (m *Mediator) RefreshSource(source string) (*DeltaReport, error) {
	sp := m.startSpan("mediator.refresh_source")
	defer m.endTrace(sp)
	m.evalMu.Lock()
	defer m.evalMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.refreshSourceLocked(source, sp)
}

func (m *Mediator) refreshSourceLocked(source string, sp *obs.Span) (*DeltaReport, error) {
	sp.SetStr("source", source)
	s, ok := m.srcs[source]
	if !ok {
		return nil, fmt.Errorf("mediator: source %s not registered", source)
	}
	rep := &DeltaReport{Source: source}
	if m.snaps[source] == nil {
		// The mediator holds no state of the source: the build reads it.
		return m.fullRebuildLocked(rep, sp)
	}
	if m.cache == nil {
		// A program change: evaluate it over the held states first.
		if _, err := m.materializeLocked(context.Background(), sp); err != nil {
			return nil, err
		}
	}
	snap := m.snaps[source]
	g := m.newGuard()
	next, grew, err := m.readSource(g, s)
	m.mergeReportsLocked(g.Reports())
	if err != nil {
		if g != nil && sourceDown(err) {
			g.markFailed(source, err)
			m.mergeReportsLocked(g.Reports())
		}
		// The stale cache stands; the caller decides what to do.
		return nil, err
	}
	if grew || !slices.Equal(ruleSig(snap.rules), ruleSig(next.rules)) {
		// Semantic rules that changed, or anchors at concepts that grew
		// the domain map, make a different program, which the EDB delta
		// API cannot express.
		delete(m.snaps, source)
		return m.fullRebuildLocked(rep, sp)
	}
	adds, dels := snap.facts.Diff(next.facts)
	anchorAdds, anchorDels := snap.anchors.Diff(next.anchors)
	return m.moveSourceLocked(s, snap, next.version, adds, dels, anchorAdds, anchorDels, sp)
}

// SyncSources refreshes every registered source whose wrapper reports
// a data version (wrapper.Versioned) different from the one the cache
// was built from. Unversioned wrappers (version 0) are never synced —
// use RefreshSource or ApplySourceDelta for those. Returns one report
// per refreshed source, in name order.
func (m *Mediator) SyncSources() ([]*DeltaReport, error) {
	sp := m.startSpan("mediator.sync_sources")
	defer m.endTrace(sp)
	m.evalMu.Lock()
	defer m.evalMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	var reps []*DeltaReport
	for _, s := range m.sortedSources() {
		ver := dataVersion(s.W)
		if snap := m.snaps[s.Name]; ver == 0 || snap != nil && snap.version == ver {
			continue
		}
		rep, err := m.refreshSourceLocked(s.Name, sp.Child("refresh "+s.Name))
		if err != nil {
			return reps, err
		}
		reps = append(reps, rep)
	}
	sp.SetInt("refreshed", int64(len(reps)))
	return reps, nil
}

// noteDeltaLocked records a completed patch on the span and counters.
func (m *Mediator) noteDeltaLocked(rep *DeltaReport, sp *obs.Span) {
	sp.SetInt("facts_added", int64(rep.FactsAdded))
	sp.SetInt("facts_removed", int64(rep.FactsRemoved))
	if rep.AnchorsAdded+rep.AnchorsRemoved > 0 {
		sp.SetInt("anchors_added", int64(rep.AnchorsAdded))
		sp.SetInt("anchors_removed", int64(rep.AnchorsRemoved))
	}
	c := m.counters()
	c.Add("mediator.delta_applies", 1)
	c.Add("mediator.delta_facts_added", int64(rep.FactsAdded))
	c.Add("mediator.delta_facts_removed", int64(rep.FactsRemoved))
	c.Add("mediator.delta_anchors_added", int64(rep.AnchorsAdded))
	c.Add("mediator.delta_anchors_removed", int64(rep.AnchorsRemoved))
	if rep.Stats != nil {
		c.Add("mediator.delta_overdeleted", int64(rep.Stats.Overdeleted))
		c.Add("mediator.delta_rederived", int64(rep.Stats.Rederived))
	}
}
