// Package obs is a dependency-free observability layer for the
// mediation pipeline: span-style tracing (parent/child wall-clock
// timing with integer attributes) and monotonic counters/gauges.
//
// The design contract is that *disabled is free*: every method on
// *Span and *Counters is safe to call on a nil receiver and returns
// immediately, so instrumented code can thread a nil span/sink through
// hot paths with only a nil check as overhead (verified by the
// benchmarks in obs_test.go). All types are safe for concurrent use —
// spans are appended to by the mediator's concurrent source fan-out.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed node in a trace tree. Create a root with New,
// sub-operations with Child, and close with End; an unfinished span
// reports the time elapsed so far. A nil *Span is a valid, zero-cost
// disabled trace.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	done     bool
	ints     []IntAttr
	strs     []StrAttr
	children []*Span
}

// IntAttr is an integer attribute attached to a span (counts, sizes,
// nanosecond durations).
type IntAttr struct {
	Key string
	Val int64
}

// StrAttr is a string attribute attached to a span (statuses, labels).
type StrAttr struct {
	Key string
	Val string
}

// New starts a root span. The clock starts immediately.
func New(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a sub-span under s and returns it. On a nil receiver it
// returns nil, so disabled traces propagate for free.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Childf is Child with Sprintf formatting; the formatting cost is only
// paid when the trace is enabled.
func (s *Span) Childf(format string, args ...any) *Span {
	if s == nil {
		return nil
	}
	return s.Child(fmt.Sprintf(format, args...))
}

// End freezes the span's duration. Ending twice keeps the first
// duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.dur = time.Since(s.start)
		s.done = true
	}
	s.mu.Unlock()
}

// SetInt sets (overwriting) an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.ints {
		if s.ints[i].Key == key {
			s.ints[i].Val = v
			s.mu.Unlock()
			return
		}
	}
	s.ints = append(s.ints, IntAttr{Key: key, Val: v})
	s.mu.Unlock()
}

// AddInt adds v to an integer attribute, creating it at v.
func (s *Span) AddInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.ints {
		if s.ints[i].Key == key {
			s.ints[i].Val += v
			s.mu.Unlock()
			return
		}
	}
	s.ints = append(s.ints, IntAttr{Key: key, Val: v})
	s.mu.Unlock()
}

// SetStr sets (overwriting) a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.strs {
		if s.strs[i].Key == key {
			s.strs[i].Val = v
			s.mu.Unlock()
			return
		}
	}
	s.strs = append(s.strs, StrAttr{Key: key, Val: v})
	s.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the frozen duration, or the time elapsed so far for
// an unfinished span (0 on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return s.dur
	}
	return time.Since(s.start)
}

// Int returns the value of an integer attribute and whether it is set.
func (s *Span) Int(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.ints {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// Str returns the value of a string attribute and whether it is set.
func (s *Span) Str(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.strs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Children returns a snapshot of the direct sub-spans (nil on nil).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Find returns the first descendant span (depth-first, including s)
// with the given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name() == name {
		return s
	}
	for _, c := range s.Children() {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// maxRenderChildren caps how many sibling spans Render prints per
// node, so a 200-round fixpoint doesn't flood the shell; the remainder
// is summarized as one "… (+N more)" line.
const maxRenderChildren = 12

// Render returns an indented text rendering of the span tree with
// durations and attributes, suitable for a terminal.
func (s *Span) Render() string {
	if s == nil {
		return "(no trace)\n"
	}
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int) {
	s.mu.Lock()
	name := s.name
	dur := s.dur
	if !s.done {
		dur = time.Since(s.start)
	}
	ints := append([]IntAttr(nil), s.ints...)
	strs := append([]StrAttr(nil), s.strs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%-*s %10s", indent, 28-2*depth, name, fmtDuration(dur))
	for _, a := range strs {
		fmt.Fprintf(b, "  %s=%s", a.Key, a.Val)
	}
	for _, a := range ints {
		fmt.Fprintf(b, "  %s=%d", a.Key, a.Val)
	}
	b.WriteString("\n")
	shown := children
	if len(shown) > maxRenderChildren {
		shown = shown[:maxRenderChildren]
	}
	for _, c := range shown {
		c.render(b, depth+1)
	}
	if n := len(children) - len(shown); n > 0 {
		fmt.Fprintf(b, "%s  … (+%d more)\n", indent, n)
	}
}

// SpanExport is the serialization-friendly form of a span tree, used
// by the serving layer's /v1/trace endpoint and per-request trace
// attachment. Attribute slices become maps; durations are nanoseconds.
type SpanExport struct {
	Name       string            `json:"name"`
	DurationNs int64             `json:"duration_ns"`
	Ints       map[string]int64  `json:"ints,omitempty"`
	Strs       map[string]string `json:"strs,omitempty"`
	Children   []*SpanExport     `json:"children,omitempty"`
}

// Export snapshots the span tree into its serializable form (nil on a
// nil receiver). An unfinished span exports the time elapsed so far.
func (s *Span) Export() *SpanExport {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := &SpanExport{Name: s.name, DurationNs: s.dur.Nanoseconds()}
	if !s.done {
		out.DurationNs = time.Since(s.start).Nanoseconds()
	}
	if len(s.ints) > 0 {
		out.Ints = make(map[string]int64, len(s.ints))
		for _, a := range s.ints {
			out.Ints[a.Key] = a.Val
		}
	}
	if len(s.strs) > 0 {
		out.Strs = make(map[string]string, len(s.strs))
		for _, a := range s.strs {
			out.Strs[a.Key] = a.Val
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.Export())
	}
	return out
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Counters is a named set of monotonic counters and gauges. A nil
// *Counters is a valid, zero-cost disabled sink.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]int64)}
}

// Add adds delta to the named counter (no-op on nil).
func (c *Counters) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Set sets the named gauge to v (no-op on nil).
func (c *Counters) Set(name string, v int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[name] = v
	c.mu.Unlock()
}

// Get returns the current value of a counter (0 on nil or unset).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters (nil map on nil receiver).
func (c *Counters) Snapshot() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Reset clears all counters (no-op on nil).
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m = make(map[string]int64)
	c.mu.Unlock()
}

// PromName sanitizes a counter name into a Prometheus metric name:
// every character outside [a-zA-Z0-9_] becomes '_', and a leading
// digit is prefixed with '_'.
func PromName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			b.WriteByte('_')
			continue
		}
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// WritePrometheus writes every counter in the Prometheus text
// exposition format (version 0.0.4), sorted by name, each prefixed
// with namespace + "_". The counters here are monotonic within one
// tracing session, so they are typed counter; callers with gauges
// write those themselves. A nil receiver writes nothing.
func (c *Counters) WritePrometheus(w io.Writer, namespace string) error {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		mn := PromName(namespace + "_" + k)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", mn, mn, snap[k]); err != nil {
			return err
		}
	}
	return nil
}

// Render returns the counters sorted by name, one "  name  value" line
// each.
func (c *Counters) Render() string {
	snap := c.Snapshot()
	if len(snap) == 0 {
		return "(no counters)\n"
	}
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "  %-44s %d\n", k, snap[k])
	}
	return b.String()
}
