package mediator

// Live federation: the mediator side of streaming source deltas. A
// feed loop (StartFeeds) subscribes to every registered source that
// implements wrapper.Streaming and hands each versioned DeltaBatch to
// ApplyStreamBatch. The batch is already shaped like a source move, so
// ApplyStreamBatch only sequences it: a batch whose FromVersion extends
// the held source version exactly goes through the one move operation
// (moveSourceLocked, incr.go) with ToVersion as the new version.
// Duplicates and late reordered batches (ToVersion already reached)
// are dropped; gaps (a skipped version) and inexpressible changes
// (rule/context moves, anchors at unknown concepts) trigger a targeted
// RefreshSource — the mediator never diverges silently, it
// resynchronizes observably (mediator.stream_resync).
//
// Backpressure is disconnection: wrappers drop subscribers that fall
// behind their bounded buffer, the feed loop sees the closed channel,
// resubscribes, and resynchronizes with one targeted refresh.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/obs"
	"modelmed/internal/srcstate"
	"modelmed/internal/wrapper"
)

// StreamOutcome says what ApplyStreamBatch did with a batch.
type StreamOutcome int

const (
	// StreamApplied: the batch extended the held version exactly
	// and was patched into the cache.
	StreamApplied StreamOutcome = iota
	// StreamStale: the batch's ToVersion was already reached
	// (duplicate or late reordered delivery); dropped.
	StreamStale
	// StreamResynced: the batch could not be applied (version gap,
	// Resync marker, unknown anchor concept, or no patchable cache)
	// and the source was re-pulled instead.
	StreamResynced
)

func (o StreamOutcome) String() string {
	switch o {
	case StreamApplied:
		return "applied"
	case StreamStale:
		return "stale"
	case StreamResynced:
		return "resynced"
	}
	return "invalid"
}

// ApplyStreamBatch applies one versioned delta batch from a streaming
// source. Exact version continuation patches incrementally; a stale
// batch is dropped; a Resync marker, a version gap, an anchor at an
// unknown concept or a missing cache falls back to a targeted refresh
// of that source (never a silent drop), whose report is returned. A
// batch carrying a non-ground fact or a fact of another
// source is refused untouched (ErrBadDelta). A move that fails once
// sequenced returns its error and changes nothing, so the next batch
// finds a version gap and resyncs through a refresh; the outcome
// returned with any error carries no meaning.
func (m *Mediator) ApplyStreamBatch(b wrapper.DeltaBatch) (*DeltaReport, StreamOutcome, error) {
	sp := m.startSpan("mediator.apply_stream_batch")
	defer m.endTrace(sp)
	sp.SetStr("source", b.Source)
	sp.SetInt("to_version", int64(b.ToVersion))
	if err := checkDeltaFacts(b.Source, b.Adds, b.Dels, b.AnchorAdds, b.AnchorDels); err != nil {
		return nil, StreamResynced, fmt.Errorf("mediator: stream batch for %s: %w", b.Source, err)
	}
	if _, ok := m.Source(b.Source); !ok {
		return nil, StreamResynced, fmt.Errorf("mediator: %w: source %s not registered", ErrBadDelta, b.Source)
	}
	m.counters().Add("mediator.stream_batches", 1)
	rep, out, why, err := m.applyBatch(b, sp)
	if why == "" {
		return rep, out, err
	}
	sp.SetStr("resync", why)
	m.counters().Add("mediator.stream_resync", 1)
	rep, err = m.refresh(b.Source, sp.Child("resync "+b.Source))
	return rep, StreamResynced, err
}

// applyBatch sequences b against the held state under m.mu: it drops a
// stale batch, moves a batch that extends the held version exactly,
// and otherwise says why the source needs a resync instead.
func (m *Mediator) applyBatch(b wrapper.DeltaBatch, sp *obs.Span) (rep *DeltaReport, out StreamOutcome, why string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.base.Load()
	held := v.State(b.Source)
	switch {
	case b.Resync:
		return nil, StreamResynced, "source-marked", nil
	case held == nil || v.Result() == nil:
		return nil, StreamResynced, "no-patchable-cache", nil
	case b.ToVersion <= held.Version:
		sp.SetStr("outcome", "stale")
		m.counters().Add("mediator.stream_stale", 1)
		return &DeltaReport{Source: b.Source}, StreamStale, "", nil
	case b.FromVersion != held.Version:
		return nil, StreamResynced, "version-gap", nil
	case slices.ContainsFunc(b.AnchorAdds, func(r datalog.Rule) bool {
		// anchor(Source, Obj, Concept): a concept the domain map does
		// not know grows the map, which a delta cannot express.
		return len(r.Head.Args) == 3 && !m.dm.HasConcept(r.Head.Args[2].Name())
	}):
		return nil, StreamResynced, "unknown-concept", nil
	}
	ch := srcstate.Change{Adds: b.Adds, Dels: b.Dels, AnchorAdds: b.AnchorAdds, AnchorDels: b.AnchorDels}
	if rep, err = m.moveSourceLocked(b.Source, b.ToVersion, ch, sp); err != nil {
		return nil, StreamResynced, "", err
	}
	m.counters().Add("mediator.stream_applied", 1)
	sp.SetStr("outcome", "applied")
	return rep, StreamApplied, "", nil
}

// FeedOptions configure StartFeeds. The zero value is usable.
type FeedOptions struct {
	// Buffer is the per-source subscription buffer (default 64). A
	// source that outruns the feed loop by more than this disconnects
	// the subscription, which costs one refresh on reconnection.
	Buffer int
	// ResubscribeDelay is the pause before reconnecting a closed or
	// failed feed (default 50ms).
	ResubscribeDelay time.Duration
	// OnError is called with feed-level errors (subscription failures,
	// failed refreshes). The feed keeps running; the next batch's
	// sequencing check repairs whatever the error left behind.
	OnError func(source string, err error)
}

func (o FeedOptions) buffer() int {
	if o.Buffer <= 0 {
		return 64
	}
	return o.Buffer
}

func (o FeedOptions) resubscribeDelay() time.Duration {
	if o.ResubscribeDelay <= 0 {
		return 50 * time.Millisecond
	}
	return o.ResubscribeDelay
}

// Feeds is a handle on the running feed loops.
type Feeds struct {
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	Sources []string // sources with a running feed, in start order
}

// Stop cancels every feed loop and waits for the goroutines to exit.
func (f *Feeds) Stop() {
	f.cancel()
	f.wg.Wait()
}

// StartFeeds subscribes to every registered source that implements
// wrapper.Streaming and pumps its delta batches through
// ApplyStreamBatch until ctx is cancelled or Stop is called. Closed
// feeds (including wrapper-side disconnects of slow subscribers) are
// resubscribed after ResubscribeDelay with a catch-up RefreshSource,
// so a disconnection window never loses changes.
func (m *Mediator) StartFeeds(ctx context.Context, opts FeedOptions) *Feeds {
	ctx, cancel := context.WithCancel(ctx)
	f := &Feeds{cancel: cancel}
	for _, s := range m.base.Load().sources() {
		if st, ok := s.W.(wrapper.Streaming); ok {
			f.Sources = append(f.Sources, s.Name)
			f.wg.Add(1)
			go func(name string) {
				defer f.wg.Done()
				m.runFeed(ctx, name, st, opts)
			}(s.Name)
		}
	}
	return f
}

// runFeed is one source's subscribe/apply/resubscribe loop.
func (m *Mediator) runFeed(ctx context.Context, name string, s wrapper.Streaming, opts FeedOptions) {
	fail := func(err error) {
		m.counters().Add("mediator.stream_feed_errors", 1)
		if opts.OnError != nil {
			opts.OnError(name, err)
		}
	}
	pause := func() bool {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(opts.resubscribeDelay()):
			return true
		}
	}
	for ctx.Err() == nil {
		ch, cancel, err := s.SubscribeDeltas(opts.buffer())
		if err != nil {
			fail(err)
			if !pause() {
				return
			}
			continue
		}
		// Catch up on anything that changed while not subscribed.
		// Batches already queued behind the refresh arrive stale and
		// are dropped by the sequencing check; a refresh failure (a
		// source mid-fault) leaves the stale state standing, and the
		// next batch's gap check retries the refresh.
		if _, err := m.RefreshSource(name); err != nil {
			fail(err)
		}
		alive := true
		for alive {
			select {
			case <-ctx.Done():
				cancel()
				return
			case b, ok := <-ch:
				if !ok {
					m.counters().Add("mediator.stream_disconnects", 1)
					cancel()
					alive = false
					break
				}
				if _, _, err := m.ApplyStreamBatch(b); err != nil {
					fail(err)
				}
			}
		}
		if !pause() {
			return
		}
	}
}
