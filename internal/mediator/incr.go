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
// Three entry points:
//
//   - ApplySourceDelta: the caller states the change (added/removed
//     ground facts) directly — the push path.
//   - RefreshSource: re-pull one source through the wrapper (under the
//     fault-tolerance guard when enabled) and diff against the
//     snapshot — the pull path.
//   - SyncSources: refresh exactly the sources whose wrapper data
//     version (wrapper.Versioned) moved since the snapshot.
//
// Changes a delta cannot express — new semantic rules, anchors at
// concepts the domain map does not know (which grow the map and hence
// the program) — fall back to a full re-materialization; the report
// says so (DeltaReport.Full).

import (
	"context"
	"errors"
	"fmt"

	"modelmed/internal/datalog"
	"modelmed/internal/obs"
	"modelmed/internal/persist"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// srcSnapshot records what one source contributed to the cached
// materialization, so the next version of the source can be diffed
// against it and the difference patched into the cache.
type srcSnapshot struct {
	// facts are the ground facts the source contributed (namespaced
	// src_* facts plus global schema facts).
	facts *datalog.Store
	// ruleSig fingerprints the source's semantic rules in order; a rule
	// change cannot be patched and forces a full rebuild.
	ruleSig []string
	// anchors are the anchor/3 facts registered for the source.
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

// ErrBadDelta marks an ApplySourceDelta error as the caller's: a stated
// fact that is not ground, or a source that is not registered. Nothing
// was changed. Every other error means the patch or a rebuild failed.
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
	// was rebuilt from scratch instead.
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
// poisons the cache (dirty) so the next Materialize rebuilds. Called
// with m.mu held; sp may be nil.
func (m *Mediator) patchCacheLocked(d *datalog.Delta, sp *obs.Span) (*datalog.DeltaStats, error) {
	if d.Empty() {
		return nil, nil
	}
	// Retarget the long-lived cache engine's tracing at this update's
	// span; its materialize-time span has long ended.
	m.cacheEngine.SetObs(sp, m.counters())
	next, err := m.cacheEngine.ApplyDelta(m.cache, d)
	if err != nil {
		m.dirty = true
		return nil, fmt.Errorf("mediator: apply delta: %w", err)
	}
	m.cache = next
	return next.Delta, nil
}

// canPatchLocked reports whether the cached materialization is in a
// state a delta can be applied to. Called with m.mu held.
func (m *Mediator) canPatchLocked(source string) bool {
	return !m.dirty && m.cache != nil && m.cacheEngine != nil && m.snaps[source] != nil
}

// fullRebuildLocked falls back to a from-scratch materialization and
// wraps the outcome in a Full report. Called with m.mu held.
func (m *Mediator) fullRebuildLocked(rep *DeltaReport, sp *obs.Span) (*DeltaReport, error) {
	rep.Full = true
	m.dirty = true
	m.counters().Add("mediator.delta_full_rebuilds", 1)
	sp.SetStr("fallback", "full")
	if _, err := m.materializeLocked(context.Background(), sp); err != nil {
		return nil, err
	}
	// A rebuild re-pulled live sources: the state on disk no longer
	// leads to the in-memory state by replay. The Full marker tells
	// recovery to stop trusting the snapshot (the caller is expected to
	// rotate a fresh one when it sees rep.Full).
	m.logDeltaLocked(&persist.WALRecord{Source: rep.Source, Full: true})
	return rep, nil
}

// ApplySourceDelta patches the cached materialization under a stated
// change to one source's ground facts: adds and dels are empty-body
// rules in the source's translated vocabulary (src_obj/src_val/
// src_tuple/src_sub namespaced by the source, or global schema facts).
// The change is recorded in the source's snapshot, refcounted against
// facts other sources also contribute, and applied through the
// engine's incremental API — derived views update by
// delete-and-rederive instead of a from-scratch run. Without a valid
// cache it rebuilds from scratch first and then applies the stated
// change on top (the report's Full flag notes the rebuild).
func (m *Mediator) ApplySourceDelta(source string, adds, dels []datalog.Rule) (*DeltaReport, error) {
	sp := m.startSpan("mediator.apply_source_delta")
	defer m.endTrace(sp)
	sp.SetStr("source", source)
	for _, facts := range [2][]datalog.Rule{adds, dels} {
		for _, r := range facts {
			if !isGroundFact(r) {
				return nil, fmt.Errorf("mediator: source delta for %s: %w: %s is not a ground fact", source, ErrBadDelta, r)
			}
		}
	}
	// Write side of evalMu: the patch mutates the cached store in place,
	// so concurrent query evaluation must be excluded for its duration.
	m.evalMu.Lock()
	defer m.evalMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.srcs[source]; !ok {
		return nil, fmt.Errorf("mediator: %w: source %s not registered", ErrBadDelta, source)
	}
	rep := &DeltaReport{Source: source}
	if !m.canPatchLocked(source) {
		// No patchable cache yet (cold or poisoned): rebuild it first and
		// then apply the stated change on top — a push before the first
		// materialization must not be dropped by the rebuild's re-pull.
		if _, err := m.fullRebuildLocked(rep, sp); err != nil {
			return nil, err
		}
		if !m.canPatchLocked(source) {
			return nil, fmt.Errorf("mediator: source delta for %s: no snapshot after rebuild", source)
		}
	}
	snap := m.snaps[source]
	d := datalog.NewDelta()
	effAdds, effDels, err := m.applyFactDeltaLocked(source, snap, rep, d, adds, dels)
	if err != nil {
		return nil, err
	}
	stats, err := m.patchCacheLocked(d, sp)
	if err != nil {
		return nil, err
	}
	rep.Stats = stats
	m.noteDeltaLocked(rep, sp)
	m.logDeltaLocked(&persist.WALRecord{
		Source:  source,
		Version: snap.version,
		Adds:    effAdds,
		Dels:    effDels,
	})
	return rep, nil
}

// applyFactDeltaLocked folds stated fact changes into the source
// snapshot and the engine delta: deletions the source never
// contributed and additions it already holds are skipped, and a
// deletion another source still asserts updates the snapshot but not
// the engine (shared-fact refcounting). Returns the effective
// (snapshot-changing) adds/dels for the WAL. Shared by the push path
// (ApplySourceDelta) and the streaming path (ApplyStreamBatch); called
// with m.mu held.
func (m *Mediator) applyFactDeltaLocked(source string, snap *srcSnapshot, rep *DeltaReport, d *datalog.Delta, adds, dels []datalog.Rule) (effAdds, effDels []datalog.Rule, err error) {
	for _, r := range dels {
		key := datalog.PredKey(r.Head.Pred, len(r.Head.Args))
		if !snap.facts.DeleteKey(key, r.Head.Args) {
			continue // the source never contributed it
		}
		rep.FactsRemoved++
		effDels = append(effDels, r)
		if m.sharedElsewhere(source, key, r.Head.Args) {
			continue // another source still asserts it
		}
		if err := d.Del(r.Head.Pred, r.Head.Args...); err != nil {
			m.dirty = true
			return nil, nil, err
		}
	}
	for _, r := range adds {
		if !snap.facts.Insert(r.Head.Pred, r.Head.Args) {
			continue // already contributed
		}
		rep.FactsAdded++
		effAdds = append(effAdds, r)
		if err := d.Add(r.Head.Pred, r.Head.Args...); err != nil {
			m.dirty = true
			return nil, nil, err
		}
	}
	return effAdds, effDels, nil
}

// RefreshSource re-pulls one source and patches the difference into
// the cached materialization. The wrapper's conceptual model is
// re-exported (catching schema growth), instance data is fetched
// through the fault-tolerance guard when the layer is enabled (per-
// source SourceReports merge into SourceReports() exactly like a
// materialize fan-out), and the resulting fact set is diffed against
// the snapshot. Rule changes or anchors at concepts the domain map
// does not know force a full rebuild. A source that is down keeps the
// stale cache and returns the error.
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
	if !m.canPatchLocked(source) {
		return m.fullRebuildLocked(rep, sp)
	}
	snap := m.snaps[source]
	// The version is read before the pull: a mutation racing the pull
	// leaves the recorded version behind, and the next sync converges.
	var version uint64
	if v, ok := s.W.(wrapper.Versioned); ok {
		version = v.DataVersion()
	}
	// Re-export CM(S): the model snapshot is what both the guarded
	// pull's class/relation list and the direct translation read.
	if s.Model != nil {
		format, doc, err := s.W.ExportCM()
		if err != nil {
			return nil, fmt.Errorf("mediator: refresh %s: export: %w", source, err)
		}
		if format == "gcmx" {
			model, err := decodeGCMX(source, doc)
			if err != nil {
				return nil, err
			}
			s.Model = model
		}
	}
	g := m.newGuard()
	facts, err := guardedSourceFacts(g, s)
	m.mergeReportsLocked(g.Reports())
	if err != nil {
		if g != nil && sourceDown(err) {
			g.markFailed(source, err)
			m.mergeReportsLocked(g.Reports())
		}
		// The stale cache stands; the caller decides what to do.
		return nil, err
	}
	newFacts := datalog.NewStore()
	var newSig []string
	for _, r := range facts {
		if isGroundFact(r) {
			newFacts.Insert(r.Head.Pred, r.Head.Args)
		} else {
			newSig = append(newSig, r.String())
		}
	}
	if !sameSig(snap.ruleSig, newSig) {
		// Semantic rules changed: the program itself is different, which
		// the EDB delta API cannot express.
		return m.fullRebuildLocked(rep, sp)
	}
	newAnchors, fullNeeded, err := m.refreshAnchorsLocked(s, snap)
	if err != nil {
		return nil, err
	}
	if fullNeeded {
		return m.fullRebuildLocked(rep, sp)
	}
	d := datalog.NewDelta()
	wal := &persist.WALRecord{Source: source, Version: version}
	snap.facts.Each(func(key string, arity int, row []term.Term) {
		if newFacts.ContainsKey(key, row) {
			return
		}
		rep.FactsRemoved++
		wal.Dels = append(wal.Dels, factForKey(key, row))
		if m.sharedElsewhere(source, key, row) {
			return
		}
		_ = d.DelFact(factForKey(key, row))
	})
	newFacts.Each(func(key string, arity int, row []term.Term) {
		if snap.facts.ContainsKey(key, row) {
			return
		}
		rep.FactsAdded++
		wal.Adds = append(wal.Adds, factForKey(key, row))
		_ = d.AddFact(factForKey(key, row))
	})
	if newAnchors != nil {
		// Anchor facts carry the source atom in position 0, so they are
		// unique per source: no refcounting needed.
		snap.anchors.Each(func(key string, arity int, row []term.Term) {
			if !newAnchors.ContainsKey(key, row) {
				rep.AnchorsRemoved++
				wal.AnchorDels = append(wal.AnchorDels, factForKey(key, row))
				_ = d.DelFact(factForKey(key, row))
			}
		})
		newAnchors.Each(func(key string, arity int, row []term.Term) {
			if !snap.anchors.ContainsKey(key, row) {
				rep.AnchorsAdded++
				wal.AnchorAdds = append(wal.AnchorAdds, factForKey(key, row))
				_ = d.AddFact(factForKey(key, row))
			}
		})
		snap.anchors = newAnchors
	}
	snap.facts = newFacts
	snap.version = version
	stats, err := m.patchCacheLocked(d, sp)
	if err != nil {
		return nil, err
	}
	rep.Stats = stats
	m.noteDeltaLocked(rep, sp)
	m.logDeltaLocked(wal)
	return rep, nil
}

// refreshAnchorsLocked re-reads the wrapper's anchors and updates the
// semantic index. It returns the new anchor-fact store (nil when the
// anchors are unchanged) and whether a full rebuild is required —
// anchors at concepts the domain map does not know grow the map, and
// with it the materialized program. Called with m.mu held.
func (m *Mediator) refreshAnchorsLocked(s *Source, snap *srcSnapshot) (*datalog.Store, bool, error) {
	anchors, err := s.W.Anchors()
	if err != nil {
		return nil, false, fmt.Errorf("mediator: refresh %s: anchors: %w", s.Name, err)
	}
	newAnchors := datalog.NewStore()
	unknown := false
	for concept, objs := range anchors {
		if !m.dm.HasConcept(concept) {
			unknown = true
		}
		for _, obj := range objs {
			newAnchors.Insert(PredAnchor, []term.Term{term.Atom(s.Name), obj, term.Atom(concept)})
		}
	}
	if newAnchors.Equal(snap.anchors) {
		return nil, false, nil
	}
	if unknown {
		// checkAnchors may extend the domain map (non-strict) or reject
		// (strict); either way a delta cannot carry the change.
		if err := m.checkAnchors(s.Name, anchors); err != nil {
			return nil, false, err
		}
	}
	// Reflect the move in the semantic index. Unregister drops the
	// source's contexts too, so they are re-registered alongside.
	contexts, err := s.W.Contexts()
	if err != nil {
		return nil, false, fmt.Errorf("mediator: refresh %s: contexts: %w", s.Name, err)
	}
	m.index.Unregister(s.Name)
	for concept, objs := range anchors {
		m.index.Register(s.Name, concept, objs...)
	}
	for key, vals := range contexts {
		for _, v := range vals {
			m.index.RegisterContext(s.Name, key, v)
		}
	}
	return newAnchors, unknown, nil
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
		v, ok := s.W.(wrapper.Versioned)
		if !ok {
			continue
		}
		ver := v.DataVersion()
		if ver == 0 {
			continue
		}
		snap := m.snaps[s.Name]
		if snap != nil && snap.version == ver {
			continue
		}
		rep, err := m.refreshSourceLocked(s.Name, sp.Child("refresh "+s.Name))
		if err != nil {
			return reps, err
		}
		reps = append(reps, rep)
		if rep.Full {
			// The rebuild re-pulled every source; the rest are current.
			break
		}
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

// sameSig compares two rule fingerprints positionally.
func sameSig(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// factForKey rebuilds an empty-body rule from a store entry. Store
// keys are PredKey(pred, arity) = "pred/arity"; the arity suffix is
// redundant with the row.
func factForKey(key string, row []term.Term) datalog.Rule {
	return datalog.Fact(datalog.PredName(key), row...)
}
