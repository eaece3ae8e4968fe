package mediator

import (
	"modelmed/internal/obs"
	"modelmed/internal/wrapper"
)

// Observability (see internal/obs and DESIGN.md, "Observability").
// When tracing is enabled, every public query entry point — Query,
// Materialize, PlannedQuery, PushSelect and the Section 5
// plan — records a span tree retrievable via LastTrace, the datalog
// engine and the guarded fan-out feed ObsCounters, and every
// registered wrapper implementing wrapper.CounterSink reports per-call
// counters into the same set. Disabled (the default), all of this is
// nil spans and nil sinks: one branch per instrumentation point.
//
// The obs state has its own mutex: a build holds m.mu for its whole
// body, so the trace accessors must not contend on it.

// EnableTracing switches span tracing and counter collection on or
// off. Turning it on allocates a fresh counter set and attaches it to
// every registered wrapper that accepts one; turning it off detaches
// the sinks and clears the captured state.
func (m *Mediator) EnableTracing(on bool) {
	m.obsMu.Lock()
	m.obsOn = on
	if on {
		m.obsCtr = obs.NewCounters()
	} else {
		m.obsCtr = nil
		m.lastSpan = nil
	}
	ctr := m.obsCtr
	m.obsMu.Unlock()

	for _, s := range m.base.Load().srcs {
		if cs, ok := s.W.(wrapper.CounterSink); ok {
			cs.SetObsCounters(ctr)
		}
	}
}

// TracingEnabled reports whether tracing is on.
func (m *Mediator) TracingEnabled() bool {
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	return m.obsOn
}

// LastTrace returns the span tree of the most recent traced query
// entry point (nil when tracing is off or nothing has run yet).
func (m *Mediator) LastTrace() *obs.Span {
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	return m.lastSpan
}

// ObsCounters returns the live counter set (nil when tracing is off).
// Counters accumulate across queries until tracing is toggled.
func (m *Mediator) ObsCounters() *obs.Counters {
	return m.counters()
}

// counters returns the active sink, nil when tracing is off.
func (m *Mediator) counters() *obs.Counters {
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	return m.obsCtr
}

// startSpan opens a root span for one query entry point, or nil when
// tracing is off.
func (m *Mediator) startSpan(name string) *obs.Span {
	m.obsMu.Lock()
	on := m.obsOn
	m.obsMu.Unlock()
	if !on {
		return nil
	}
	return obs.New(name)
}

// endTrace closes a root span and publishes it as the last trace.
func (m *Mediator) endTrace(sp *obs.Span) {
	if sp == nil {
		return
	}
	sp.End()
	m.obsMu.Lock()
	m.lastSpan = sp
	m.obsMu.Unlock()
}
