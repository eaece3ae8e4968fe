package mediator

// Incremental maintenance of the materialized mediated object base.
// The mediator publishes every source's state and the result over them
// as one srcstate.Base, and a source moves through exactly one
// operation, moveSourceLocked: the Base folds the change under the
// shared-fact rule and patches the result with one ApplyDelta
// (srcstate.Base.Move), and the mediator publishes the next Base and
// adds the report and counters, and the WAL record. The entry points
// only decide whether and what to move:
// ApplySourceDelta (push; the version stays), RefreshSource and
// SyncSources (pull; the wrapper's version, read before the pull),
// ApplyStreamBatch (stream.go; the batch's version, which must extend
// the held one exactly) and WAL replay (persist.go; the logged move).
// A change a move cannot express — new semantic rules, anchors at
// concepts the domain map does not know — falls back to a build from
// scratch over the held states (DeltaReport.Full).

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"modelmed/internal/datalog"
	"modelmed/internal/obs"
	"modelmed/internal/persist"
	"modelmed/internal/srcstate"
	"modelmed/internal/term"
)

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
	// (before the shared-fact rule; see srcstate.Base.Move).
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

// fullRebuildLocked builds the cache from scratch and wraps the outcome
// in a Full report. The build reads only the sources the mediator holds
// no state of, and writes a Full marker for each (materializeLocked);
// over held states alone it reads no wrapper and writes no marker.
// Called with m.mu held.
func (m *Mediator) fullRebuildLocked(rep *DeltaReport, sp *obs.Span) (*DeltaReport, error) {
	rep.Full = true
	m.counters().Add("mediator.delta_full_rebuilds", 1)
	sp.SetStr("fallback", "full")
	m.publishLocked(m.base.Load().DropResult(), "")
	if _, err := m.materializeLocked(context.Background(), sp); err != nil {
		return nil, err
	}
	return rep, nil
}

// moveSourceLocked is the one operation that moves a source
// (srcstate.Base.Move). It records the step and logs the changes that
// took effect (not during replay), so replay against the same states
// reaches the same engine delta. A failed move changes nothing. Called
// with m.mu held.
func (m *Mediator) moveSourceLocked(s *Source, toVersion uint64, ch srcstate.Change, sp *obs.Span) (*DeltaReport, error) {
	// Every caller holds a result, so an engine: retarget its tracing at
	// this move's span.
	v := m.base.Load()
	v.Engine().SetObs(sp, m.counters())
	next, eff, stats, err := v.Move(context.Background(), s.Name, toVersion, ch)
	if err != nil {
		return nil, fmt.Errorf("mediator: move %s: %w", s.Name, err)
	}
	m.publishLocked(next, v.sig)
	rep := &DeltaReport{
		Source:         s.Name,
		FactsAdded:     len(eff.Adds),
		FactsRemoved:   len(eff.Dels),
		AnchorsAdded:   len(eff.AnchorAdds),
		AnchorsRemoved: len(eff.AnchorDels),
		Stats:          stats,
	}
	m.noteDeltaLocked(rep, sp)
	m.logDeltaLocked(&persist.WALRecord{Source: s.Name, Version: toVersion,
		Adds: eff.Adds, Dels: eff.Dels, AnchorAdds: eff.AnchorAdds, AnchorDels: eff.AnchorDels})
	return rep, nil
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
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.srcs[source]
	if !ok {
		return nil, fmt.Errorf("mediator: %w: source %s not registered", ErrBadDelta, source)
	}
	v := m.base.Load()
	rebuilt := v.Result() == nil || v.State(source) == nil
	if rebuilt {
		// No patchable cache yet (cold, or a program change): build it
		// first and then apply the stated change on top.
		if _, err := m.fullRebuildLocked(&DeltaReport{Source: source}, sp); err != nil {
			return nil, err
		}
	}
	held := m.base.Load().State(source)
	if held == nil {
		return nil, fmt.Errorf("mediator: source delta for %s: no state after rebuild", source)
	}
	ch := srcstate.Change{Adds: adds, Dels: dels, AnchorAdds: anchorAdds, AnchorDels: anchorDels}
	rep, err := m.moveSourceLocked(s, held.Version, ch, sp)
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
// read is diffed against the held state. Rule changes or anchors at
// concepts the domain map does not know force a full rebuild, which
// reads the source again. A source that is down keeps the stale cache
// and returns the error.
func (m *Mediator) RefreshSource(source string) (*DeltaReport, error) {
	sp := m.startSpan("mediator.refresh_source")
	defer m.endTrace(sp)
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
	v := m.base.Load()
	if v.State(source) == nil {
		// The mediator holds no state of the source: the build reads it.
		return m.fullRebuildLocked(rep, sp)
	}
	if v.Result() == nil {
		// A program change: evaluate it over the held states first.
		var err error
		if v, err = m.materializeLocked(context.Background(), sp); err != nil {
			return nil, err
		}
	}
	held := v.State(source)
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
	if grew || !slices.Equal(ruleSig(held.Rules), ruleSig(next.Rules)) {
		// Semantic rules that changed, or anchors at concepts that grew
		// the domain map, make a different program, which the EDB delta
		// API cannot express.
		m.publishLocked(v.DropSource(source), "")
		return m.fullRebuildLocked(rep, sp)
	}
	var ch srcstate.Change
	ch.Adds, ch.Dels = held.Facts.Diff(next.Facts)
	ch.AnchorAdds, ch.AnchorDels = held.Anchors.Diff(next.Anchors)
	return m.moveSourceLocked(s, next.Version, ch, sp)
}

// SyncSources refreshes every registered source whose wrapper reports
// a data version (wrapper.Versioned) different from the one the cache
// was built from. Unversioned wrappers (version 0) are never synced —
// use RefreshSource or ApplySourceDelta for those. Returns one report
// per refreshed source, in name order.
func (m *Mediator) SyncSources() ([]*DeltaReport, error) {
	sp := m.startSpan("mediator.sync_sources")
	defer m.endTrace(sp)
	m.mu.Lock()
	defer m.mu.Unlock()
	var reps []*DeltaReport
	for _, s := range m.sortedSources() {
		ver := dataVersion(s.W)
		if held := m.base.Load().State(s.Name); ver == 0 || held != nil && held.Version == ver {
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
