package mediator

// Durability: snapshotting the materialized cache and restoring it on
// a later boot (warm start), with every source move write-ahead logged
// in between so recovery replays the tail instead of re-pulling
// sources. internal/persist owns the bytes (format, checksums, atomic
// rotation, torn-tail repair); this file owns the semantics, whose
// recovery invariants DESIGN.md ("Durability & warm restart") states:
// the restored EDB is the union of the saved source states; a snapshot
// of another program or other source rules is refused; a logged move
// replays through the same moveSourceLocked against the same states,
// so it reaches the same engine delta and the same held anchors; and
// replaying a move the snapshot already holds is a no-op. Staleness is
// the caller's move: RestoreFromDB reports the sources whose live
// wrapper versions differ from the snapshot, and SyncSources
// reconciles them incrementally.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"

	"modelmed/internal/datalog"
	"modelmed/internal/obs"
	"modelmed/internal/persist"
	"modelmed/internal/srcstate"
)

// SetDeltaLogger installs fn as the write-ahead sink for incremental
// maintenance: every applied source move (ApplySourceDelta,
// RefreshSource, SyncSources, ApplyStreamBatch) emits one record, and
// a build that reads a source through its wrapper emits a Full marker
// for it (see buildReadsLocked). fn runs with the mediator's locks
// held — it must be fast and must not call back into the mediator. A
// nil fn disables logging.
func (m *Mediator) SetDeltaLogger(fn func(*persist.WALRecord)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deltaLog = fn
}

// logDeltaLocked hands a record to the installed logger. Called with
// m.mu held; suppressed during WAL replay.
func (m *Mediator) logDeltaLocked(rec *persist.WALRecord) {
	if m.deltaLog == nil || m.replaying {
		return
	}
	m.deltaLog(rec)
}

// programSigLocked fingerprints the mediator-level rule program. Two
// mediators with the same signature derive the same facts from the
// same EDB, which is what makes a snapshot transferable across
// processes. Called with m.mu held.
func (m *Mediator) programSigLocked() string {
	h := sha256.New()
	for _, rs := range m.ruleSetsLocked() {
		for _, r := range rs {
			h.Write([]byte(r.String()))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sourceRules returns the semantic rules a source contributes to the
// program — the non-ground entries of its translation — without
// rendering its instance data.
func sourceRules(s *Source) []datalog.Rule {
	var out []datalog.Rule
	if s.Model != nil {
		for _, r := range s.Model.SchemaFacts() {
			if !isGroundFact(r) {
				out = append(out, r)
			}
		}
		out = append(out, s.Model.Rules...)
		return out
	}
	for _, f := range s.Facts {
		if !isGroundFact(f) {
			out = append(out, f)
		}
	}
	return out
}

// SnapshotState captures the published materialization as a durable
// snapshot: the full store plus each source's facts, rule signature,
// anchors, and data version. It fails when there is nothing sound to
// persist — no cache, one that lacks a registered source, or a
// non-stratified materialization. The snapshot shares its stores with the published
// value, which nothing writes, so it can be encoded while the mediator
// moves on.
func (m *Mediator) SnapshotState() (*persist.Snapshot, error) {
	v := m.base.Load()
	res := v.Result()
	switch {
	case res == nil:
		return nil, fmt.Errorf("mediator: snapshot: no materialized cache")
	case v.Len() < len(v.srcs):
		return nil, fmt.Errorf("mediator: snapshot: cache is degraded (a source was dropped)")
	case !res.Stratified || res.Undefined != nil:
		return nil, fmt.Errorf("mediator: snapshot: non-stratified materialization is not persistable")
	}
	snap := &persist.Snapshot{ProgramSig: v.sig, Store: res.Store}
	for _, name := range v.Names() {
		st := v.State(name)
		snap.Sources = append(snap.Sources, persist.SourceState{
			Name:    name,
			Version: st.Version,
			RuleSig: ruleSig(st.Rules),
			Facts:   st.Facts,
			Anchors: st.Anchors,
		})
	}
	return snap, nil
}

// SaveSnapshotTo captures the current materialization and writes it
// through db (atomically rotating the snapshot and resetting the WAL).
func (m *Mediator) SaveSnapshotTo(db *persist.DB) error {
	snap, err := m.SnapshotState()
	if err != nil {
		return err
	}
	return db.SaveSnapshot(snap)
}

// RestoreReport describes one warm-start attempt.
type RestoreReport struct {
	// Restored reports whether the cache was adopted from disk. When
	// false, Reason says why and the mediator is untouched (its cache
	// dropped, if replay failed midway, so the semantic index reads the
	// registered anchors again) — the caller falls back to a normal
	// Materialize.
	Restored bool
	Reason   string
	// Replayed counts WAL records applied on top of the snapshot.
	Replayed int
	// WALTruncated reports that a torn or corrupt WAL tail was
	// discarded during replay.
	WALTruncated bool
	// Facts is the size of the restored store.
	Facts int
	// StaleSources lists versioned sources whose live data version
	// differs from the restored snapshot; reconcile with SyncSources.
	StaleSources []string
}

// RestoreFromDB attempts a warm start: load the snapshot, validate it
// against the registered program and sources, adopt the materialized
// store without re-running the fixpoint, and replay the WAL tail.
// Failure is not an error — the report says what happened and the
// caller re-materializes from live sources as usual.
func (m *Mediator) RestoreFromDB(db *persist.DB) *RestoreReport {
	sp := m.startSpan("mediator.restore")
	defer m.endTrace(sp)
	rep := &RestoreReport{}
	snap, err := db.LoadSnapshot()
	if err != nil {
		rep.Reason = err.Error()
		sp.SetStr("outcome", "no-snapshot")
		return rep
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.restoreStateLocked(snap, sp); err != nil {
		rep.Reason = err.Error()
		sp.SetStr("outcome", "rejected")
		return rep
	}
	m.replaying = true
	res, rerr := db.ReplayWAL(func(rec *persist.WALRecord) error {
		return m.replayDeltaLocked(rec, sp)
	})
	m.replaying = false
	if res != nil {
		rep.Replayed = res.Records
		rep.WALTruncated = res.Truncated
	}
	if rerr != nil {
		// A Full-rebuild marker or a failed patch: the log cannot
		// reproduce the dying process's state. Drop the half-restored
		// cache wholesale; with no source states left, the semantic
		// index reads the registered anchors again.
		m.publishLocked(m.base.Load().srcs, srcstate.Base{}, "")
		rep.Restored = false
		rep.Reason = rerr.Error()
		sp.SetStr("outcome", "replay-failed")
		return rep
	}
	rep.Restored = true
	rep.Facts = m.base.Load().Result().Store.Size()
	rep.StaleSources = m.staleSourcesLocked()
	m.counters().Add("mediator.warm_restores", 1)
	sp.SetStr("outcome", "restored")
	sp.SetInt("replayed", int64(rep.Replayed))
	sp.SetInt("facts", int64(rep.Facts))
	return rep
}

// restoreStateLocked validates snap against the registered program and
// adopts it: the snapshot's source states become the held ones and its
// store the cache, with no fixpoint run (buildLocked, the build every
// materialization runs). Called with m.mu held.
func (m *Mediator) restoreStateLocked(snap *persist.Snapshot, sp *obs.Span) error {
	if sig := m.programSigLocked(); snap.ProgramSig != sig {
		return fmt.Errorf("mediator: restore: program changed (snapshot %.12s…, current %.12s…)",
			snap.ProgramSig, sig)
	}
	srcs := m.base.Load().srcs
	if len(snap.Sources) != len(srcs) {
		return fmt.Errorf("mediator: restore: snapshot has %d sources, %d registered",
			len(snap.Sources), len(srcs))
	}
	states := make(map[string]*srcstate.State, len(snap.Sources))
	for _, st := range snap.Sources {
		s, ok := srcs[st.Name]
		if !ok {
			return fmt.Errorf("mediator: restore: snapshot source %s is not registered", st.Name)
		}
		rules := sourceRules(s)
		if !slices.Equal(st.RuleSig, ruleSig(rules)) {
			return fmt.Errorf("mediator: restore: semantic rules of %s changed", st.Name)
		}
		// Once adopted, these anchors are the ones the semantic index
		// reads, not the ones the wrapper reported at registration.
		states[st.Name] = &srcstate.State{Facts: st.Facts, Anchors: st.Anchors, Rules: rules, Version: st.Version}
	}
	return m.buildLocked(context.Background(), srcs, states, snap.Store, sp)
}

// replayDeltaLocked re-applies one logged move through the same
// operation that made it, against the same source state, so the same
// dedup and shared-fact rule decide the engine-level delta and the held
// anchors the semantic index reads. Called with m.mu held.
func (m *Mediator) replayDeltaLocked(rec *persist.WALRecord, sp *obs.Span) error {
	if rec.Full {
		return fmt.Errorf("mediator: replay: wal has a full-rebuild marker for %s; snapshot is stale", rec.Source)
	}
	if m.base.Load().State(rec.Source) == nil {
		return fmt.Errorf("mediator: replay: record for unknown source %s", rec.Source)
	}
	ch := srcstate.Change{Adds: rec.Adds, Dels: rec.Dels, AnchorAdds: rec.AnchorAdds, AnchorDels: rec.AnchorDels}
	_, err := m.moveSourceLocked(rec.Source, rec.Version, ch, sp)
	return err
}

// staleSourcesLocked lists versioned sources whose live wrapper data
// version differs from the state the cache was restored (or built)
// from, in name order. Called with m.mu held.
func (m *Mediator) staleSourcesLocked() []string {
	var stale []string
	v := m.base.Load()
	for _, s := range v.sources() {
		ver := dataVersion(s.W)
		if st := v.State(s.Name); ver != 0 && st != nil && st.Version != ver {
			stale = append(stale, s.Name)
		}
	}
	return stale
}
