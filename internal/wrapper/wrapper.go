// Package wrapper implements the wrapper side of the model-based
// mediator architecture (Section 2): a wrapped source exports its
// conceptual model CM(S) in XML, describes its query capabilities (the
// usually very limited "logical API" for retrieving object instances,
// plus optional binding patterns that let the mediator push selections
// down), and anchors its objects at domain-map concepts.
package wrapper

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"modelmed/internal/gcm"
	"modelmed/internal/obs"
	"modelmed/internal/term"
	"modelmed/internal/xmlio"
)

// CapKind distinguishes capability templates.
type CapKind int

const (
	// CapClassScan: enumerate all instances of a class.
	CapClassScan CapKind = iota
	// CapClassSelect: enumerate instances of a class with selections on
	// the listed bindable methods pushed down.
	CapClassSelect
	// CapRelScan: enumerate all tuples of a relation.
	CapRelScan
	// CapRelSelect: enumerate tuples with selections on the listed
	// bindable attributes pushed down.
	CapRelSelect
	// CapTemplate: a named, parameterized query the source answers
	// natively (the paper's "query templates"). Target is the template
	// name; Bindable lists the parameter names.
	CapTemplate
)

func (k CapKind) String() string {
	switch k {
	case CapClassScan:
		return "class-scan"
	case CapClassSelect:
		return "class-select"
	case CapRelScan:
		return "rel-scan"
	case CapRelSelect:
		return "rel-select"
	case CapTemplate:
		return "template"
	}
	return "invalid"
}

// Capability is one query template a source supports. Bindable lists the
// method/attribute names that may carry pushed-down selections (the
// paper's binding patterns).
type Capability struct {
	Target   string
	Kind     CapKind
	Bindable []string
}

// Selection is an attribute = value filter.
type Selection struct {
	Attr  string
	Value term.Term
}

// Query is a request the mediator sends to a wrapper: a target class or
// relation plus selections. Selections must be covered by a declared
// capability; otherwise the wrapper rejects the query and the mediator
// must scan and filter locally.
type Query struct {
	Target     string
	Selections []Selection
}

// Stats counts the traffic a wrapper has served, for the push-down
// benchmarks.
type Stats struct {
	Queries         int
	ObjectsReturned int
	TuplesReturned  int
}

// Wrapper is the mediator-facing interface of a wrapped source.
type Wrapper interface {
	// Name identifies the source.
	Name() string
	// ExportCM serializes the source's conceptual model for the wire,
	// returning the CM format name and the XML document.
	ExportCM() (format string, doc []byte, err error)
	// Capabilities describes the source's query templates.
	Capabilities() []Capability
	// Anchors returns the semantic coordinates of the source's data:
	// domain-map concept -> anchored object IDs.
	Anchors() (map[string][]term.Term, error)
	// Contexts returns the source-level context summary: context
	// attribute -> distinct values occurring in the data (organism,
	// condition, ...), used to refine source selection.
	Contexts() (map[string][]term.Term, error)
	// QueryObjects returns the objects of a class matching the query.
	QueryObjects(q Query) ([]gcm.Object, error)
	// QueryTuples returns the tuples of a relation matching the query.
	QueryTuples(q Query) ([][]term.Term, error)
	// QueryTemplate invokes a named query template with parameters. It
	// fails unless a CapTemplate capability declares the template.
	QueryTemplate(name string, params map[string]term.Term) ([]gcm.Object, error)
	// Stats reports the traffic served so far.
	Stats() Stats
}

// Versioned is an optional wrapper capability: sources whose data can
// change in place expose a monotonically increasing data version. The
// mediator records the version it materialized from and, on
// SyncSources, re-pulls and diffs only the sources whose version moved
// — the change-detection half of incremental view maintenance. A
// version of 0 means "unversioned" and is never considered changed.
type Versioned interface {
	DataVersion() uint64
}

// CounterSink is implemented by wrappers that can report per-call
// latency/outcome counters into an observability sink. The mediator
// attaches its counter set when tracing is enabled (and detaches with
// nil when disabled); a wrapper with no sink records nothing. Counter
// names follow "wrapper.<source>.<metric>" — see DESIGN.md,
// "Observability".
type CounterSink interface {
	SetObsCounters(c *obs.Counters)
}

// obsEnd charges one finished wrapper call to a sink; a nil sink is a
// no-op. kind ("objects"/"tuples") labels the success payload counter.
func obsEnd(c *obs.Counters, name string, start time.Time, kind string, n int, err error) {
	if c == nil {
		return
	}
	c.Add("wrapper."+name+".calls", 1)
	c.Add("wrapper."+name+".latency_ns", time.Since(start).Nanoseconds())
	if err != nil {
		c.Add("wrapper."+name+".errors", 1)
	} else if kind != "" {
		c.Add("wrapper."+name+"."+kind, int64(n))
	}
}

// TemplateFunc answers one query template over a model.
type TemplateFunc func(m *gcm.Model, params map[string]term.Term) ([]gcm.Object, error)

// InMemory is a Wrapper over an in-process gcm.Model; the standard test
// and simulation substrate for sources.
type InMemory struct {
	mu        sync.Mutex
	model     *gcm.Model
	caps      []Capability
	templates map[string]TemplateFunc
	stats     Stats
	obsC      *obs.Counters
	version   uint64
	subs      map[int]chan DeltaBatch // live streaming subscribers
	nextSub   int
}

// SetObsCounters implements CounterSink.
func (w *InMemory) SetObsCounters(c *obs.Counters) {
	w.mu.Lock()
	w.obsC = c
	w.mu.Unlock()
}

// obsStart returns the attached sink (nil when observability is off)
// and the call start time; the clock is only read when a sink is set.
func (w *InMemory) obsStart() (*obs.Counters, time.Time) {
	w.mu.Lock()
	c := w.obsC
	w.mu.Unlock()
	if c == nil {
		return nil, time.Time{}
	}
	return c, time.Now()
}

// NewInMemory wraps a model with the given capabilities. If caps is
// empty, minimal capabilities (scans of every class and relation) are
// derived, matching the paper's "minimally specify means for browsing
// through all instances".
func NewInMemory(m *gcm.Model, caps ...Capability) (*InMemory, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(caps) == 0 {
		var names []string
		for n := range m.Classes {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			caps = append(caps, Capability{Target: n, Kind: CapClassScan})
		}
		names = names[:0]
		for n := range m.Relations {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			caps = append(caps, Capability{Target: n, Kind: CapRelScan})
		}
	}
	return &InMemory{model: m, caps: caps, templates: map[string]TemplateFunc{}}, nil
}

// RegisterTemplate installs a named query template and declares the
// corresponding capability.
func (w *InMemory) RegisterTemplate(name string, params []string, fn TemplateFunc) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.templates[name] = fn
	w.caps = append(w.caps, Capability{Target: name, Kind: CapTemplate, Bindable: params})
}

// QueryTemplate implements Wrapper.
func (w *InMemory) QueryTemplate(name string, params map[string]term.Term) ([]gcm.Object, error) {
	ctr, start := w.obsStart()
	w.mu.Lock()
	fn := w.templates[name]
	var cap Capability
	declared := false
	for _, c := range w.caps {
		if c.Kind == CapTemplate && c.Target == name {
			cap, declared = c, true
			break
		}
	}
	w.mu.Unlock()
	if fn == nil || !declared {
		err := fmt.Errorf("wrapper %s: no template %q", w.model.Name, name)
		obsEnd(ctr, w.model.Name, start, "", 0, err)
		return nil, err
	}
	for p := range params {
		ok := false
		for _, b := range cap.Bindable {
			if b == p {
				ok = true
				break
			}
		}
		if !ok {
			err := fmt.Errorf("wrapper %s: template %q has no parameter %q (has %v)",
				w.model.Name, name, p, cap.Bindable)
			obsEnd(ctr, w.model.Name, start, "", 0, err)
			return nil, err
		}
	}
	w.mu.Lock()
	objs, err := fn(w.model, params)
	if err != nil {
		w.mu.Unlock()
		obsEnd(ctr, w.model.Name, start, "", 0, err)
		return nil, err
	}
	w.stats.Queries++
	w.stats.ObjectsReturned += len(objs)
	w.mu.Unlock()
	obsEnd(ctr, w.model.Name, start, "objects", len(objs), nil)
	return objs, nil
}

// Name implements Wrapper.
func (w *InMemory) Name() string { return w.model.Name }

// DataVersion implements Versioned: it starts at 1 and each Mutate
// bumps it.
func (w *InMemory) DataVersion() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.version + 1
}

// Mutate applies fn to the wrapped model and bumps the data version so
// the mediator's SyncSources notices the change. fn runs under the
// wrapper mutex, which orders concurrent Mutate calls and version
// reads; callers remain responsible for not mutating the model while a
// query fan-out is reading it (the mediator's Refresh/Sync path pulls a
// consistent snapshot after the mutation, so mutate-then-sync is the
// intended sequence). When streaming subscribers are attached
// (SubscribeDeltas), the pre-mutation state is snapshotted, diffed
// against the result, and the versioned delta batch pushed to every
// subscriber.
func (w *InMemory) Mutate(fn func(m *gcm.Model)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var pre *streamState
	if len(w.subs) > 0 {
		pre = newStreamState(w.model)
	}
	fn(w.model)
	w.version++
	w.emitLocked(pre)
}

// Model exposes the wrapped model (for in-process tooling; the mediator
// uses ExportCM).
func (w *InMemory) Model() *gcm.Model { return w.model }

// ExportCM implements Wrapper using the GCMX codec. The encode runs
// under the wrapper mutex so a concurrent Mutate (a live streaming
// source) cannot tear the snapshot.
func (w *InMemory) ExportCM() (string, []byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	doc, err := xmlio.EncodeModel(w.model)
	return "gcmx", doc, err
}

// Capabilities implements Wrapper.
func (w *InMemory) Capabilities() []Capability {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Capability, len(w.caps))
	copy(out, w.caps)
	return out
}

// Anchors implements Wrapper from the model's anchor-marked methods.
func (w *InMemory) Anchors() (map[string][]term.Term, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.model.AnchorValues(), nil
}

// Contexts implements Wrapper from the model's context-marked methods.
func (w *InMemory) Contexts() (map[string][]term.Term, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.model.ContextValues(), nil
}

// Covers reports whether a declared capability covers q: a scan or a
// select of q.Target when q has no selections, else a select whose
// Bindable lists every selected attribute (the paper's binding
// patterns). class picks class capabilities over relation ones.
func Covers(caps []Capability, q Query, class bool) bool {
	scanKind, selKind := CapRelScan, CapRelSelect
	if class {
		scanKind, selKind = CapClassScan, CapClassSelect
	}
	for _, c := range caps {
		if c.Target != q.Target {
			continue
		}
		if len(q.Selections) == 0 && (c.Kind == scanKind || c.Kind == selKind) {
			return true
		}
		if c.Kind == selKind && !slices.ContainsFunc(q.Selections, func(s Selection) bool {
			return !slices.Contains(c.Bindable, s.Attr)
		}) {
			return true
		}
	}
	return false
}

// checkCovered rejects a query no capability covers. The capability
// list is snapshotted under the mutex: RegisterTemplate may append
// concurrently with queries issued by the mediator's parallel fan-out.
func (w *InMemory) checkCovered(q Query, class bool) error {
	w.mu.Lock()
	caps := w.caps
	w.mu.Unlock()
	if Covers(caps, q, class) {
		return nil
	}
	return fmt.Errorf("wrapper %s: no capability covers query on %s with selections %v",
		w.model.Name, q.Target, q.Selections)
}

// classAndDescendants returns the target class and its declared
// subclasses (transitively).
func (w *InMemory) classAndDescendants(class string) map[string]bool {
	out := map[string]bool{class: true}
	changed := true
	for changed {
		changed = false
		for name, c := range w.model.Classes {
			if out[name] {
				continue
			}
			for _, s := range c.Super {
				if out[s] {
					out[name] = true
					changed = true
					break
				}
			}
		}
	}
	return out
}

// QueryObjects implements Wrapper. The scan runs under the wrapper
// mutex and copies each object's value map, so callers keep a
// consistent result while concurrent Mutate calls (live streaming
// sources) change the model underneath.
func (w *InMemory) QueryObjects(q Query) ([]gcm.Object, error) {
	ctr, start := w.obsStart()
	if err := w.checkCovered(q, true); err != nil {
		obsEnd(ctr, w.model.Name, start, "", 0, err)
		return nil, err
	}
	w.mu.Lock()
	classes := w.classAndDescendants(q.Target)
	var out []gcm.Object
	for _, o := range w.model.Objects {
		if !classes[o.Class] {
			continue
		}
		if !matchSelections(o.Values, q.Selections) {
			continue
		}
		vals := make(map[string][]term.Term, len(o.Values))
		for k, v := range o.Values {
			vals[k] = v
		}
		o.Values = vals
		out = append(out, o)
	}
	w.stats.Queries++
	w.stats.ObjectsReturned += len(out)
	w.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Compare(out[j].ID) < 0 })
	obsEnd(ctr, w.model.Name, start, "objects", len(out), nil)
	return out, nil
}

func matchSelections(values map[string][]term.Term, sels []Selection) bool {
	for _, s := range sels {
		hit := false
		for _, v := range values[s.Attr] {
			if v.Equal(s.Value) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// QueryTuples implements Wrapper. Selections address relation attributes
// by name.
func (w *InMemory) QueryTuples(q Query) ([][]term.Term, error) {
	ctr, start := w.obsStart()
	if err := w.checkCovered(q, false); err != nil {
		obsEnd(ctr, w.model.Name, start, "", 0, err)
		return nil, err
	}
	w.mu.Lock()
	rel := w.model.Relations[q.Target]
	if rel == nil {
		w.mu.Unlock()
		err := fmt.Errorf("wrapper %s: unknown relation %s", w.model.Name, q.Target)
		obsEnd(ctr, w.model.Name, start, "", 0, err)
		return nil, err
	}
	pos := map[string]int{}
	for i, a := range rel.Attrs {
		pos[a.Name] = i
	}
	var out [][]term.Term
	for _, tp := range w.model.Tuples[q.Target] {
		ok := true
		for _, s := range q.Selections {
			i, known := pos[s.Attr]
			if !known || !tp[i].Equal(s.Value) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, tp)
		}
	}
	w.stats.Queries++
	w.stats.TuplesReturned += len(out)
	w.mu.Unlock()
	obsEnd(ctr, w.model.Name, start, "tuples", len(out), nil)
	return out, nil
}

// Stats implements Wrapper.
func (w *InMemory) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// FromGCMXFile builds a wrapper from a GCMX document on disk: a source
// defined purely by an interchange file. The document is validated
// against the GCMX structure before decoding.
func FromGCMXFile(path string, caps ...Capability) (*InMemory, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wrapper: %w", err)
	}
	return FromGCMX(doc, caps...)
}

// FromGCMX builds a wrapper from GCMX document bytes.
func FromGCMX(doc []byte, caps ...Capability) (*InMemory, error) {
	if err := xmlio.ValidateGCMX(doc); err != nil {
		return nil, err
	}
	m, err := xmlio.DecodeModel(doc)
	if err != nil {
		return nil, err
	}
	return NewInMemory(m, caps...)
}
