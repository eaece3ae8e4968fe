package wrapper

// Streaming source deltas: the push half of live federation. A
// Streaming wrapper emits versioned DeltaBatch values describing how
// its exported fact set changed between two consecutive data versions,
// in the same namespaced vocabulary the mediator materializes
// (src_obj/src_val/src_sub/src_tuple plus global schema facts, with
// anchor moves carried separately). The mediator's feed loop
// (mediator.StartFeeds) consumes the channel and applies each batch
// through the incremental-maintenance machinery; version sequencing is
// the contract that makes silent divergence impossible — a batch whose
// FromVersion does not extend the snapshot forces a targeted refresh.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"modelmed/internal/datalog"
	"modelmed/internal/gcm"
	"modelmed/internal/term"
)

// Fact vocabulary of the materialized mediator object base. Source data
// is namespaced by source name, so views can address a specific source
// the way the paper writes 'NCMIR'.protein.name. The constants live
// here (not in the mediator) because streaming wrappers render their
// own deltas in this vocabulary; the mediator aliases them.
const (
	PredSrcObj   = "src_obj"   // src_obj(Source, Obj, Class)
	PredSrcVal   = "src_val"   // src_val(Source, Obj, Method, Value)
	PredSrcSub   = "src_sub"   // src_sub(Source, Sub, Super)
	PredSrcTuple = "src_tuple" // src_tuple(Source, Rel, Args...)
	PredAnchor   = "anchor"    // anchor(Source, Obj, Concept)
)

// ModelFacts renders a conceptual model's data in the namespaced
// vocabulary: global schema facts (which include any non-ground
// derivation rules the model declares), sorted subclass links, object
// instances with their method values, and relation tuples. The model's
// semantic Rules are NOT included — the mediator appends those itself.
// This is the single rendering both the mediator's pull path and the
// wrapper's streaming diff use, so the two can never disagree about
// what a source contributes.
func ModelFacts(name string, model *gcm.Model) []datalog.Rule {
	sn := term.Atom(name)
	var out []datalog.Rule
	out = append(out, model.SchemaFacts()...)
	names := make([]string, 0, len(model.Classes))
	for n := range model.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, cn := range names {
		for _, sup := range model.Classes[cn].Super {
			out = append(out, datalog.Fact(PredSrcSub, sn, term.Atom(cn), term.Atom(sup)))
		}
	}
	for _, o := range model.Objects {
		out = append(out, datalog.Fact(PredSrcObj, sn, o.ID, term.Atom(o.Class)))
		methods := make([]string, 0, len(o.Values))
		for mn := range o.Values {
			methods = append(methods, mn)
		}
		sort.Strings(methods)
		for _, mn := range methods {
			for _, v := range o.Values[mn] {
				out = append(out, datalog.Fact(PredSrcVal, sn, o.ID, term.Atom(mn), v))
			}
		}
	}
	rels := make([]string, 0, len(model.Tuples))
	for rn := range model.Tuples {
		rels = append(rels, rn)
	}
	sort.Strings(rels)
	for _, rn := range rels {
		for _, tp := range model.Tuples[rn] {
			args := append([]term.Term{sn, term.Atom(rn)}, tp...)
			out = append(out, datalog.Fact(PredSrcTuple, args...))
		}
	}
	return out
}

// DeltaBatch is one versioned change emitted on a streaming feed: the
// ground facts added and removed between FromVersion and ToVersion.
// Versions chain — a consumer holding version V applies a batch only
// when FromVersion == V, detecting duplicates (ToVersion <= V) and
// gaps (FromVersion > V) by arithmetic alone. Anchor changes are
// carried separately because they update the semantic index, not just
// the fact store. Resync marks a change a delta cannot express (new
// semantic rules, a changed context summary): the consumer must
// re-pull the source instead of patching.
type DeltaBatch struct {
	Source      string
	FromVersion uint64
	ToVersion   uint64
	Adds        []datalog.Rule
	Dels        []datalog.Rule
	AnchorAdds  []datalog.Rule
	AnchorDels  []datalog.Rule
	Resync      bool
}

// Empty reports whether the batch carries no change payload.
func (b *DeltaBatch) Empty() bool {
	return !b.Resync && len(b.Adds) == 0 && len(b.Dels) == 0 &&
		len(b.AnchorAdds) == 0 && len(b.AnchorDels) == 0
}

// Streaming is the optional wrapper capability behind live federation:
// sources whose data changes push versioned delta batches instead of
// waiting to be re-pulled. SubscribeDeltas returns a channel of
// batches, a cancel function releasing the subscription, and an error
// when the wrapper cannot stream. The channel is closed when the
// subscription ends — by cancel, or by the producer dropping a
// subscriber that is too slow to keep its bounded buffer from
// overflowing (backpressure by disconnection: the consumer must
// resubscribe and resynchronize, which the mediator feed loop does
// with a targeted RefreshSource).
type Streaming interface {
	SubscribeDeltas(buffer int) (<-chan DeltaBatch, func(), error)
}

// streamState is the pre/post image Mutate diffs to build a batch.
type streamState struct {
	facts   *datalog.Store
	anchors *datalog.Store
	sig     []string // non-ground rules, in order: a change forces resync
	ctx     string   // canonical context summary: a change forces resync
}

func newStreamState(model *gcm.Model) *streamState {
	st := &streamState{facts: datalog.NewStore(), anchors: datalog.NewStore()}
	for _, r := range ModelFacts(model.Name, model) {
		if streamGround(r) {
			st.facts.Insert(r.Head.Pred, r.Head.Args)
		} else {
			st.sig = append(st.sig, r.String())
		}
	}
	for _, r := range model.Rules {
		st.sig = append(st.sig, r.String())
	}
	sn := term.Atom(model.Name)
	for concept, objs := range model.AnchorValues() {
		for _, obj := range objs {
			st.anchors.Insert(PredAnchor, []term.Term{sn, obj, term.Atom(concept)})
		}
	}
	st.ctx = contextSummary(model)
	return st
}

// contextSummary renders the model's context values canonically.
func contextSummary(model *gcm.Model) string {
	ctxs := model.ContextValues()
	keys := make([]string, 0, len(ctxs))
	for k := range ctxs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		vals := make([]string, 0, len(ctxs[k]))
		for _, v := range ctxs[k] {
			vals = append(vals, v.Key())
		}
		sort.Strings(vals)
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strings.Join(vals, ","))
		b.WriteByte(';')
	}
	return b.String()
}

// streamGround mirrors the mediator's ground-fact test.
func streamGround(r datalog.Rule) bool {
	if len(r.Body) != 0 {
		return false
	}
	for _, a := range r.Head.Args {
		if !a.IsGround() {
			return false
		}
	}
	return true
}

func sameStreamSig(a, b []string) bool {
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

// diffStreamStates builds the batch that takes pre to post.
func diffStreamStates(source string, from, to uint64, pre, post *streamState) DeltaBatch {
	b := DeltaBatch{Source: source, FromVersion: from, ToVersion: to}
	if !sameStreamSig(pre.sig, post.sig) || pre.ctx != post.ctx {
		// Rule or context-summary changes grow/shrink the mediated
		// program; a fact delta cannot carry them.
		b.Resync = true
		return b
	}
	b.Adds, b.Dels = pre.facts.Diff(post.facts)
	b.AnchorAdds, b.AnchorDels = pre.anchors.Diff(post.anchors)
	return b
}

// SubscribeDeltas implements Streaming. Each Mutate emits one batch to
// every live subscriber; a subscriber whose buffer is full when a
// batch arrives is disconnected (channel closed) rather than allowed
// to stall the producer or silently miss a version.
func (w *InMemory) SubscribeDeltas(buffer int) (<-chan DeltaBatch, func(), error) {
	if buffer <= 0 {
		buffer = 16
	}
	w.mu.Lock()
	if w.subs == nil {
		w.subs = map[int]chan DeltaBatch{}
	}
	id := w.nextSub
	w.nextSub++
	ch := make(chan DeltaBatch, buffer)
	w.subs[id] = ch
	w.mu.Unlock()
	cancel := func() {
		w.mu.Lock()
		if c, ok := w.subs[id]; ok {
			delete(w.subs, id)
			close(c)
		}
		w.mu.Unlock()
	}
	return ch, cancel, nil
}

// emitLocked diffs the pre-mutation state against the current model
// and pushes the batch to every subscriber. Called with w.mu held,
// after the version bump; pre is non-nil only when subscribers existed
// when the mutation started.
func (w *InMemory) emitLocked(pre *streamState) {
	if pre == nil || len(w.subs) == 0 {
		return
	}
	post := newStreamState(w.model)
	// DataVersion is version+1, so the post-bump w.version is exactly
	// the DataVersion subscribers held before this mutation.
	b := diffStreamStates(w.model.Name, w.version, w.version+1, pre, post)
	for id, ch := range w.subs {
		select {
		case ch <- b:
		default:
			// Bounded-buffer overflow: drop the subscriber. The closed
			// channel is its signal to resubscribe and resync.
			delete(w.subs, id)
			close(ch)
		}
	}
}

// StreamFaults is the streaming half of a fault schedule: what Faulty
// does to the delta batches it forwards. The zero value forwards
// faithfully.
type StreamFaults struct {
	// DisconnectEvery closes the subscriber's channel after every N
	// forwarded source batches (0 = never), simulating a feed that
	// drops its connection; consumers must resubscribe.
	DisconnectEvery int
	// DuplicateProb re-delivers the previous batch before the current
	// one — a stale ToVersion the consumer must recognize and drop.
	DuplicateProb float64
	// DropProb silently swallows a batch — a version gap the consumer
	// must detect (FromVersion mismatch) and repair by refresh.
	DropProb float64
	// ReorderProb holds a batch back and delivers it after its
	// successor: the successor arrives as a gap, the held batch as
	// stale.
	ReorderProb float64
}

// StreamFaultStats counts injected streaming faults.
type StreamFaultStats struct {
	Batches     int // source batches observed
	Drops       int
	Duplicates  int
	Reorders    int
	Disconnects int
}

// StreamFaultStats returns the streaming injection counters so far.
func (f *Faulty) StreamFaultStats() StreamFaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.streamStats
}

// streamOrdinal hands out the next batch ordinal for the feed's
// deterministic schedule. The counter is persistent across
// resubscribes, so a reconnecting consumer continues the same schedule
// instead of replaying its prefix.
func (f *Faulty) streamOrdinal() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.calls["stream"]
	f.calls["stream"]++
	f.streamStats.Batches++
	return n
}

// SubscribeDeltas implements Streaming by forwarding the inner
// wrapper's feed with the configured faults injected. Every decision
// is a pure function of (Seed, batch ordinal), so a failing chaos
// schedule replays exactly.
func (f *Faulty) SubscribeDeltas(buffer int) (<-chan DeltaBatch, func(), error) {
	s, ok := f.inner.(Streaming)
	if !ok {
		return nil, nil, fmt.Errorf("wrapper %s: inner wrapper does not stream", f.inner.Name())
	}
	in, cancel, err := s.SubscribeDeltas(buffer)
	if err != nil {
		return nil, nil, err
	}
	if buffer <= 0 {
		buffer = 16
	}
	out := make(chan DeltaBatch, buffer)
	done := make(chan struct{})
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			close(done)
		})
	}
	go f.forwardStream(in, out, stop, done)
	return out, stop, nil
}

// forwardStream is the fault-injecting pump between the inner feed and
// the subscriber.
func (f *Faulty) forwardStream(in <-chan DeltaBatch, out chan<- DeltaBatch, stop func(), done <-chan struct{}) {
	defer close(out)
	send := func(b DeltaBatch) bool {
		select {
		case out <- b:
			return true
		case <-done:
			return false
		}
	}
	var prev *DeltaBatch // last batch delivered, for duplication
	var held *DeltaBatch // batch held back by a reorder
	for {
		var b DeltaBatch
		var ok bool
		select {
		case b, ok = <-in:
		case <-done:
			return
		}
		if !ok {
			// Inner feed ended: flush a held batch so a reorder at the
			// tail is a delay, not a loss.
			if held != nil {
				send(*held)
			}
			return
		}
		n := f.streamOrdinal()
		cfg := f.cfg.Stream
		r := newSiteRand(f.cfg.Seed, "stream", n)
		if cfg.DropProb > 0 && r.Float64() < cfg.DropProb {
			f.mu.Lock()
			f.streamStats.Drops++
			f.mu.Unlock()
			continue
		}
		if cfg.DuplicateProb > 0 && prev != nil && r.Float64() < cfg.DuplicateProb {
			f.mu.Lock()
			f.streamStats.Duplicates++
			f.mu.Unlock()
			if !send(*prev) {
				return
			}
		}
		if cfg.ReorderProb > 0 && held == nil && r.Float64() < cfg.ReorderProb {
			f.mu.Lock()
			f.streamStats.Reorders++
			f.mu.Unlock()
			c := b
			held = &c
			continue
		}
		if !send(b) {
			return
		}
		c := b
		prev = &c
		if held != nil {
			// The held batch lands after its successor: stale on arrival.
			if !send(*held) {
				return
			}
			held = nil
		}
		if cfg.DisconnectEvery > 0 && (n+1)%cfg.DisconnectEvery == 0 {
			f.mu.Lock()
			f.streamStats.Disconnects++
			f.mu.Unlock()
			stop()
			return
		}
	}
}
