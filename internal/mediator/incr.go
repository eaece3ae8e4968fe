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
//
// A writer reads a wrapper before it takes m.mu (readThenLock), then
// moves the state held at commit by its difference to the read. A
// change a move cannot express — a source not held, new semantic
// rules, a grown domain map, no result — builds over the held states
// with the read in (DeltaReport.Full).

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
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
	// Epoch, From and To number the commit: the source's stamp number
	// (Stamp.Sources) before and after it, in this mediator's numbering
	// (Epoch); a move that changed nothing has From == To. A Full
	// report is numbered too, but Change does not take the state at
	// From to the state at To: a build is no change. Epoch is zero only
	// when nothing was committed (the read was dropped, the streamed
	// batch was stale).
	Epoch, From, To uint64
	// Change is the change a move took effect with, the one logged to
	// the WAL.
	Change srcstate.Change
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

// readAhead reads through their wrappers, concurrently (at most
// GOMAXPROCS at a time) under one guard, the registered sources of v
// that want picks and — when v has no result, so the commit builds —
// every one v holds no state of, taking no lock. It returns the reads
// in name order, the sources tried, and the first failure, except that
// a source v holds no state of and that stays down stays missing, its
// report saying why. A cancelled ctx returns its error and no read.
func (m *Mediator) readAhead(ctx context.Context, v *published, want func(*published, *Source) bool, sp *obs.Span) (pulls []*pull, tried []*Source, err error) {
	for _, s := range v.sources() {
		if want != nil && want(v, s) || v.Result() == nil && v.State(s.Name) == nil {
			tried = append(tried, s)
		}
	}
	if len(tried) == 0 {
		return nil, nil, nil
	}
	g := m.newGuardCtx(ctx)
	fsp := sp.Child("sources")
	defer fsp.End()
	read, errs, spans := make([]*pull, len(tried)), make([]error, len(tried)), make([]*obs.Span, len(tried))
	for i, s := range tried {
		spans[i] = fsp.Child("source " + s.Name) // serially, for a deterministic order
	}
	fanOut(len(tried), runtime.GOMAXPROCS(0), func(i int) {
		if read[i], errs[i] = m.readSource(g, tried[i]); errs[i] != nil {
			spans[i].SetStr("error", errs[i].Error())
		} else {
			spans[i].SetInt("facts", int64(read[i].st.Facts.Size()))
		}
		spans[i].End()
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for i, s := range tried {
		if errs[i] == nil {
			pulls = append(pulls, read[i])
			continue
		}
		if g != nil && sourceDown(errs[i]) {
			g.markFailed(s.Name, errs[i])
			if v.State(s.Name) == nil {
				m.counters().Add("mediator.sources_dropped", 1)
				continue
			}
		}
		err = cmp.Or(err, errs[i])
	}
	g.annotate(fsp)
	m.mergeReports(g.Reports())
	return pulls, tried, err
}

// readThenLock is the writers' one way to read sources: readAhead
// outside m.mu, then m.mu taken and the reads committed (commitLocked).
// When the value at commit has no result and lacks a registered source
// the read did not try (a Register or an Invalidate raced it), it reads
// again, so the commit's build takes every source in. It returns with
// m.mu held, the reports of the reads committed, and the first failure
// of the reads or the commit.
func (m *Mediator) readThenLock(sp *obs.Span, want func(*published, *Source) bool) ([]*DeltaReport, error) {
	for {
		from := m.base.Load()
		pulls, tried, rerr := m.readAhead(context.Background(), from, want, sp)
		m.mu.Lock()
		v := m.base.Load()
		if v.Result() == nil && slices.ContainsFunc(v.sources(), func(s *Source) bool {
			return v.State(s.Name) == nil && !slices.Contains(tried, s)
		}) {
			m.mu.Unlock()
			continue
		}
		reps, err := m.commitLocked(from, pulls, sp)
		return reps, cmp.Or(rerr, err)
	}
}

// commitLocked commits reads made from the value from against the value
// held now. It drops a read of a source no longer registered with the
// wrapper read, and one older than a version committed since from (a
// streamed batch, another writer's read): that newer state stands. A
// read grows the domain map by the concepts it anchors at (growLocked;
// refused under StrictAnchors, it is dropped). Each read's source moves
// by the difference of the held state to the read, or the program is
// built with the reads in (buildReadsLocked) when a move cannot express
// the change. Each read committed publishes its Source and gets one
// report. Called with m.mu held.
func (m *Mediator) commitLocked(from *published, pulls []*pull, sp *obs.Span) ([]*DeltaReport, error) {
	v := m.base.Load()
	build := v.Result() == nil
	var kept []*pull
	var err error
	for _, p := range pulls {
		name := p.src.Name
		held, was := v.State(name), from.State(name)
		overtaken := held != nil && held.Version > p.st.Version && (was == nil || was.Version != held.Version)
		if s := v.srcs[name]; s == nil || s.W != p.src.W || overtaken {
			continue
		}
		grew, gerr := m.growLocked(name, p.unknown)
		if gerr != nil {
			err = cmp.Or(err, gerr)
			continue
		}
		build = build || grew || held == nil || !slices.Equal(ruleSig(held.Rules), ruleSig(p.st.Rules))
		kept = append(kept, p)
	}
	reps := make([]*DeltaReport, 0, len(kept))
	if build {
		if berr := m.buildReadsLocked(context.Background(), v, kept, sp); berr != nil {
			return nil, berr
		}
		m.counters().Add("mediator.delta_full_rebuilds", 1)
		sp.SetStr("fallback", "full")
		built := m.base.Load().stamp
		for _, p := range kept {
			name := p.src.Name
			reps = append(reps, &DeltaReport{Source: name, Full: true,
				Epoch: m.epoch, From: v.stamp.Sources[name], To: built.Sources[name]})
		}
		return reps, err
	}
	if len(kept) == 0 {
		return reps, err
	}
	srcs := maps.Clone(v.srcs)
	for _, p := range kept {
		held := v.State(p.src.Name)
		var ch srcstate.Change
		ch.Adds, ch.Dels = held.Facts.Diff(p.st.Facts)
		ch.AnchorAdds, ch.AnchorDels = held.Anchors.Diff(p.st.Anchors)
		rep, merr := m.moveSourceLocked(p.src.Name, p.st.Version, ch, sp)
		if merr != nil {
			err = merr
			break
		}
		srcs[p.src.Name] = p.src
		reps = append(reps, rep)
	}
	cur := m.base.Load()
	m.publishLocked(srcs, cur.Base, cur.sig)
	return reps, err
}

// buildReadsLocked builds the program over the states v holds with the
// reads in, publishing each read's Source, and writes each read's Full
// marker: its source moved without a logged move. Called with m.mu
// held.
func (m *Mediator) buildReadsLocked(ctx context.Context, v *published, pulls []*pull, sp *obs.Span) error {
	states, srcs := v.States(), maps.Clone(v.srcs)
	for _, p := range pulls {
		states[p.src.Name], srcs[p.src.Name] = p.st, p.src
	}
	if err := m.buildLocked(ctx, srcs, states, nil, sp); err != nil {
		return err
	}
	for _, p := range pulls {
		m.logDeltaLocked(&persist.WALRecord{Source: p.src.Name, Full: true})
	}
	return nil
}

// moveSourceLocked is the one operation that moves a source
// (srcstate.Base.Move). It logs the changes that took effect (not
// during replay), so replay against the same states reaches the same
// engine delta, before it publishes the move, which wakes the standing
// queries (Changed); then it records the step. A failed move changes
// nothing. Called with m.mu held.
func (m *Mediator) moveSourceLocked(source string, toVersion uint64, ch srcstate.Change, sp *obs.Span) (*DeltaReport, error) {
	// Every caller holds a result, so an engine: retarget its tracing at
	// this move's span.
	v := m.base.Load()
	v.Engine().SetObs(sp, m.counters())
	next, eff, stats, err := v.Move(context.Background(), source, toVersion, ch)
	if err != nil {
		return nil, fmt.Errorf("mediator: move %s: %w", source, err)
	}
	m.logDeltaLocked(&persist.WALRecord{Source: source, Version: toVersion,
		Adds: eff.Adds, Dels: eff.Dels, AnchorAdds: eff.AnchorAdds, AnchorDels: eff.AnchorDels})
	m.publishLocked(v.srcs, next, v.sig)
	rep := &DeltaReport{
		Source:         source,
		FactsAdded:     len(eff.Adds),
		FactsRemoved:   len(eff.Dels),
		AnchorsAdded:   len(eff.AnchorAdds),
		AnchorsRemoved: len(eff.AnchorDels),
		Stats:          stats,
		Epoch:          m.epoch,
		From:           v.stamp.Sources[source],
		To:             m.base.Load().stamp.Sources[source],
		Change:         eff,
	}
	m.noteDeltaLocked(rep, sp)
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
// delete-and-rederive instead of a from-scratch run. Without a cache
// or a state of the source it builds one first (readThenLock), then
// applies the change on top (Full notes the build); a source that stays
// down fails the push.
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
	if _, ok := m.Source(source); !ok {
		return nil, fmt.Errorf("mediator: %w: source %s not registered", ErrBadDelta, source)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.base.Load()
	rebuilt := v.Result() == nil || v.State(source) == nil
	if rebuilt {
		// The build's reads happen outside m.mu; readThenLock returns
		// with it held again, for the deferred Unlock.
		m.mu.Unlock()
		if _, err := m.readThenLock(sp, func(v *published, s *Source) bool {
			return s.Name == source && v.State(source) == nil
		}); err != nil {
			return nil, err
		}
	}
	held := m.base.Load().State(source)
	if held == nil {
		return nil, fmt.Errorf("mediator: source delta for %s: %w", source, m.downError(source))
	}
	ch := srcstate.Change{Adds: adds, Dels: dels, AnchorAdds: anchorAdds, AnchorDels: anchorDels}
	rep, err := m.moveSourceLocked(source, held.Version, ch, sp)
	if err != nil {
		return nil, err
	}
	rep.Full = rebuilt
	return rep, nil
}

// RefreshSource reads one source through its wrapper (readSource)
// before it takes m.mu, catching schema growth and pulling through the
// fault-tolerance guard when the layer is on, and commits the read
// against the state held then (commitLocked). A source that is down
// keeps the held state, and the error is returned.
func (m *Mediator) RefreshSource(source string) (*DeltaReport, error) {
	sp := m.startSpan("mediator.refresh_source")
	defer m.endTrace(sp)
	return m.refresh(source, sp)
}

func (m *Mediator) refresh(source string, sp *obs.Span) (*DeltaReport, error) {
	sp.SetStr("source", source)
	if _, ok := m.Source(source); !ok {
		return nil, fmt.Errorf("mediator: source %s not registered", source)
	}
	reps, err := m.readThenLock(sp, func(_ *published, s *Source) bool { return s.Name == source })
	held := m.base.Load().State(source)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for _, rep := range reps {
		if rep.Source == source {
			return rep, nil
		}
	}
	if held == nil {
		return nil, m.downError(source)
	}
	// The read was dropped: the held state is newer.
	return &DeltaReport{Source: source}, nil
}

// SyncSources reads before m.mu and commits at once (readThenLock)
// every registered source whose wrapper reports a data version
// (wrapper.Versioned) other than the held state's, and every one the
// mediator holds no state of — down or not read yet — once its breaker
// admits a call. A held unversioned source is never synced (use
// RefreshSource). Returns one report per source committed, in name
// order.
func (m *Mediator) SyncSources() ([]*DeltaReport, error) {
	sp := m.startSpan("mediator.sync_sources")
	defer m.endTrace(sp)
	reps, err := m.readThenLock(sp, func(v *published, s *Source) bool {
		held := v.State(s.Name)
		if held == nil {
			return m.breakerFor(s.Name).Allow()
		}
		ver := dataVersion(s.W)
		return ver != 0 && ver != held.Version
	})
	m.mu.Unlock()
	sp.SetInt("refreshed", int64(len(reps)))
	return reps, err
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
