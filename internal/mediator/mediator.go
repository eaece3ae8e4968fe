// Package mediator implements the paper's primary contribution: a
// model-based mediator. Sources join at runtime by registering their
// conceptual models (shipped as XML through the CM plug-in mechanism),
// their query capabilities, and the anchors of their data in the
// mediator's domain map, which builds the semantic index. Integrated
// views are defined and executed at the conceptual level: view rules
// range over source objects, the GCM axioms, and the domain-map graph
// operations (tc, dc, role_star, downward closure, lub).
package mediator

import (
	"context"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"modelmed/internal/breaker"
	"modelmed/internal/datalog"
	"modelmed/internal/dl"
	"modelmed/internal/domainmap"
	"modelmed/internal/flogic"
	"modelmed/internal/gcm"
	"modelmed/internal/obs"
	"modelmed/internal/parser"
	"modelmed/internal/persist"
	"modelmed/internal/srcstate"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
	"modelmed/internal/xmlio"
)

// Fact vocabulary of the materialized mediator object base. Source data
// is namespaced by source name, so views can address a specific source
// the way the paper writes 'NCMIR'.protein.name. The canonical
// definitions live in the wrapper package (streaming wrappers render
// their own deltas in this vocabulary); these aliases keep the
// mediator-side names working.
const (
	PredSrcObj   = wrapper.PredSrcObj   // src_obj(Source, Obj, Class)
	PredSrcVal   = wrapper.PredSrcVal   // src_val(Source, Obj, Method, Value)
	PredSrcSub   = wrapper.PredSrcSub   // src_sub(Source, Sub, Super)
	PredSrcTuple = wrapper.PredSrcTuple // src_tuple(Source, Rel, Args...)
	PredAnchor   = wrapper.PredAnchor   // anchor(Source, Obj, Concept)
)

// Options configure a mediator.
type Options struct {
	// ExecuteDMInstances loads the instance-level translation of the
	// domain-map axioms into the materialized program (assertion mode:
	// Skolem placeholders for missing role successors). Off by default:
	// the Section 5 query plan and the standard views only need the
	// concept-level graph operations.
	ExecuteDMInstances bool
	// Engine passes evaluation options through to the datalog engine.
	Engine datalog.Options
	// StrictAnchors rejects registration when a source anchors data at
	// a concept the domain map does not know. When false, unknown
	// concepts are added to the map implicitly.
	StrictAnchors bool

	// The fault-tolerance layer (see fault.go): any of SourceTimeout,
	// MaxRetries or Breaker.Threshold guards the source reads (a build,
	// a refresh or sync, PushSelect) with deadlines, retries and a
	// breaker; a source that stays down is left out of the published
	// value, and its SourceReport and Answer.Missing say so.

	// SourceTimeout bounds each wrapper call (0 = no deadline).
	SourceTimeout time.Duration
	// MaxRetries is the number of retries after the first attempt of a
	// transiently failing call.
	MaxRetries int
	// RetryBase is the first backoff step (default 1ms); backoff
	// doubles per retry up to RetryMax (default 100ms), jittered.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Breaker configures the per-source circuit breaker: Threshold
	// consecutive transient failures open it (0 disables it), and an
	// open breaker rejects calls for Cooldown (default 1s). SyncSources
	// re-reads a source left out as down once its breaker admits a call.
	Breaker breaker.Config
}

// Source is a registered source as the mediator sees it. Nothing writes
// one once it is published: a read of the source (readSource) returns a
// copy carrying what it read, which its commit publishes.
type Source struct {
	Name string
	// W is the live wrapper (query interface).
	W wrapper.Wrapper
	// Model is the decoded conceptual model CM(S) received over the
	// wire; nil for fact-level (foreign-format) sources.
	Model *gcm.Model
	// Facts are the GCM facts of a foreign-format source that arrived
	// through a CM plug-in.
	Facts []datalog.Rule
	// Caps are the declared query capabilities.
	Caps []wrapper.Capability

	// anchors (as anchor/3 facts) and contexts are what the wrapper
	// reported at Register or at the read that made this Source.
	anchors  *datalog.Store
	contexts map[string][]term.Term
	// exported is the data version Model or Facts was exported at (0 =
	// unversioned, so every read exports again).
	exported uint64
}

// Mediator is the model-based mediator.
type Mediator struct {
	// mu serializes the writers' commits; no read takes it once a
	// result is published.
	mu       sync.Mutex
	opts     Options
	dm       *domainmap.DomainMap
	index    *domainmap.SemanticIndex
	registry *xmlio.Registry
	views    []datalog.Rule
	viewText []string

	// base is the published value: the registered sources, their states
	// and the program's result over them (see incr.go). Readers load it
	// and take no lock; writers read sources before they take m.mu, then
	// store the next value (publishLocked) and never write a stored one,
	// so every answer reflects exactly one published state. With no
	// result, the next read builds one.
	base atomic.Pointer[published]
	// commits is the last commit number a publish took (see Stamp).
	commits uint64
	// epoch names this mediator's numbering (see Epoch).
	epoch uint64

	// deltaLog, when set, receives a WAL record for every source move
	// (and a Full marker for every source a build reads) while m.mu is
	// held, so records are appended in exactly the order they landed.
	// replaying suppresses it during WAL replay so recovery does not
	// re-log its own input (see persist.go).
	deltaLog  func(*persist.WALRecord)
	replaying bool

	// faultMu guards the fault layer's state: the per-source circuit
	// breakers, which persist across reads, and lastReports, each
	// source's most recent SourceReport of any guarded read.
	faultMu     sync.Mutex
	breakers    map[string]*breaker.Breaker
	lastReports map[string]SourceReport

	// obsMu guards the observability state (see obs.go); separate from
	// m.mu because a cold build holds m.mu for its whole body.
	obsMu    sync.Mutex
	obsOn    bool
	obsCtr   *obs.Counters
	lastSpan *obs.Span

	// prep holds the prepared queries (see prepare.go).
	prep prepared
}

// New returns a mediator over the given domain map.
func New(dm *domainmap.DomainMap, opts *Options) *Mediator {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	m := &Mediator{
		opts:     o,
		dm:       dm,
		registry: xmlio.NewRegistry(),
		epoch:    rand.Uint64()>>11 | 1,
	}
	m.index = domainmap.NewIndex(m.walkAnchors)
	m.publishLocked(map[string]*Source{}, srcstate.Base{}, "")
	return m
}

// published is what the mediator publishes: a Base, the registered
// sources and what readers need of the program it was built under.
// Nothing writes one once it is stored.
type published struct {
	srcstate.Base
	// srcs are the registered sources by name (see missing).
	srcs map[string]*Source
	// views are the program's view rules, whose heads
	// ValidateVocabulary admits, and viewText their texts.
	views    []datalog.Rule
	viewText []string
	// sig fingerprints the program Result was built under
	// (programSigLocked); "" without a Result.
	sig string
	// stamp numbers this value; changed is closed when the next value
	// is published.
	stamp   *Stamp
	changed chan struct{}
}

// Stamp identifies a published value by numbers only, so that keeping
// one (an answer cache's entry) keeps no value or Result alive. Every
// publish takes the next number of one mediator-wide counter as
// Commit. A source's number is the commit that last changed its state:
// a move stamps the state it moves, a build every state it builds
// over. One counter, not a count of each state's moves, because a build
// over a state read again (Invalidate, a Full rebuild) would start that
// count over and reuse a number an old answer holds.
type Stamp struct {
	Commit uint64
	// Sources maps each source the value holds a state of to its
	// number; nil when the value has no result.
	Sources map[string]uint64
}

// Serves reports whether an answer read at stamp was is the answer s
// gives too, when the answer reads only the states of deps, or
// anything (global): s has a result, and is the same commit (global)
// or stamps each of deps as was does.
func (s *Stamp) Serves(was *Stamp, deps []string, global bool) bool {
	if s.Sources == nil || was == nil {
		return false
	}
	if global {
		return s.Commit == was.Commit
	}
	for _, d := range deps {
		if s.Sources[d] != was.Sources[d] {
			return false
		}
	}
	return true
}

// publishLocked publishes b, built under the program of signature sig,
// over the registered sources srcs, with the current view rules, under
// the next commit number (see Stamp), and wakes whoever waits on the
// value it supersedes (Changed). Called with m.mu held.
func (m *Mediator) publishLocked(srcs map[string]*Source, b srcstate.Base, sig string) {
	m.commits++
	prev := m.base.Load()
	st := &Stamp{Commit: m.commits}
	if b.Result() != nil {
		st.Sources = make(map[string]uint64, b.Len())
		for _, name := range b.Names() {
			n := m.commits
			// A build has an engine of its own: only a state a move left
			// alone keeps its number.
			if prev != nil && prev.Engine() == b.Engine() && prev.State(name) == b.State(name) {
				n = prev.stamp.Sources[name]
			}
			st.Sources[name] = n
		}
	}
	m.base.Store(&published{Base: b, srcs: srcs, views: m.views, viewText: m.viewText, sig: sig,
		stamp: st, changed: make(chan struct{})})
	if prev != nil {
		close(prev.changed)
	}
}

// Stamp returns the published value's stamp.
func (m *Mediator) Stamp() *Stamp { return m.base.Load().stamp }

// Epoch names the numbering this mediator's stamps are in: a random
// nonzero number drawn when it is made, below 2^53 so that a JSON
// reader holding numbers as doubles reads it exactly. Commit numbers
// start over in every process, so a stamp number read from another
// process means something only beside the epoch it was read under.
func (m *Mediator) Epoch() uint64 { return m.epoch }

// Changed returns a channel closed when the value now published is
// superseded: by a move, a build, or a program change. A standing query
// loads it before it reads, then waits on it.
func (m *Mediator) Changed() <-chan struct{} { return m.base.Load().changed }

// names returns v's registered source names in order.
func (v *published) names() []string {
	out := make([]string, 0, len(v.srcs))
	for n := range v.srcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// sources returns v's registered sources in name order.
func (v *published) sources() []*Source {
	out := make([]*Source, 0, len(v.srcs))
	for _, n := range v.names() {
		out = append(out, v.srcs[n])
	}
	return out
}

// missing returns the registered sources v holds no state of, in name
// order; nil when it holds every one.
func (v *published) missing() []string {
	if v.Len() == len(v.srcs) {
		return nil
	}
	return slices.DeleteFunc(v.names(), func(n string) bool { return v.State(n) != nil })
}

// DomainMap returns the mediator's domain map.
func (m *Mediator) DomainMap() *domainmap.DomainMap { return m.dm }

// Index returns the semantic index, a view over the sources' anchor
// facts (see walkAnchors).
func (m *Mediator) Index() *domainmap.SemanticIndex { return m.index }

// anchorKey is the store key of the anchor/3 facts.
var anchorKey = datalog.PredKey(PredAnchor, 3)

// walkAnchors is the semantic index's walk over the published value:
// every registered source's contexts and its anchors — the held ones,
// else (no state held) the ones it last reported.
func (m *Mediator) walkAnchors(yield func(domainmap.SourceAnchors) bool) {
	v := m.base.Load()
	for name, s := range v.srcs {
		anchors := s.anchors
		if st := v.State(name); st != nil {
			anchors = st.Anchors
		}
		if !yield(domainmap.SourceAnchors{Source: name, Anchors: anchors.Rel(anchorKey), Contexts: s.contexts}) {
			return
		}
	}
}

// takeReport sets next, a Source not yet published, to the anchors (as
// anchor/3 facts) and contexts its wrapper reports now, and returns the
// anchor concepts the domain map does not know (see growLocked).
func (m *Mediator) takeReport(next *Source) (unknown []string, err error) {
	anchors, err := next.W.Anchors()
	if err != nil {
		return nil, fmt.Errorf("mediator: source %s: anchors: %w", next.Name, err)
	}
	contexts, err := next.W.Contexts()
	if err != nil {
		return nil, fmt.Errorf("mediator: source %s: contexts: %w", next.Name, err)
	}
	concepts := make([]string, 0, len(anchors))
	for c := range anchors {
		concepts = append(concepts, c)
	}
	sort.Strings(concepts)
	st := datalog.NewStore()
	for _, concept := range concepts {
		if !m.dm.HasConcept(concept) {
			unknown = append(unknown, concept)
		}
		for _, obj := range anchors[concept] {
			if !obj.IsGround() {
				return nil, fmt.Errorf("mediator: source %s: anchor %s at %s is not ground", next.Name, obj, concept)
			}
			st.Insert(PredAnchor, []term.Term{term.Atom(next.Name), obj, term.Atom(concept)})
		}
	}
	next.anchors, next.contexts = st, contexts
	return unknown, nil
}

// growLocked adds to the domain map, under thing, the concepts of
// unknown it still does not know, reporting whether it grew; under
// StrictAnchors it refuses them instead. Called with m.mu held.
func (m *Mediator) growLocked(source string, unknown []string) (grew bool, err error) {
	var axioms []dl.Axiom
	for _, c := range unknown {
		if !m.dm.HasConcept(c) {
			axioms = append(axioms, dl.Sub(c, dl.C("thing")))
		}
	}
	if len(axioms) == 0 {
		return false, nil
	}
	if m.opts.StrictAnchors {
		return false, fmt.Errorf("mediator: source %s anchors at unknown concepts %s; register the knowledge first (RegisterKnowledge)",
			source, strings.Join(unknown, ", "))
	}
	return true, m.dm.AddAxioms(axioms...)
}

// Registry returns the CM plug-in registry, so new formats can be
// plugged in at runtime.
func (m *Mediator) Registry() *xmlio.Registry { return m.registry }

// Sources returns the registered source names, sorted.
func (m *Mediator) Sources() []string { return m.base.Load().names() }

// Source returns a registered source by name.
func (m *Mediator) Source(name string) (*Source, bool) {
	s, ok := m.base.Load().srcs[name]
	return s, ok
}

// Register wires a source into the mediated system (the runtime flow of
// Figure 2): the wrapper exports CM(S) over the XML wire, the mediator
// decodes it through the plug-in registry, records the query
// capabilities, and anchors the source's data in the domain map: the
// anchor facts it keeps on the source are what the semantic index
// reads. These are readSource's export and report, read before m.mu;
// its pull is left to the next build.
func (m *Mediator) Register(w wrapper.Wrapper) error {
	name := w.Name()
	src := &Source{Name: name, W: w, Caps: w.Capabilities()}
	if err := m.exportCM(src, dataVersion(w)); err != nil {
		return err
	}
	unknown, err := m.takeReport(src)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.base.Load()
	if _, dup := v.srcs[name]; dup {
		return fmt.Errorf("mediator: source %s already registered", name)
	}
	if _, err := m.growLocked(name, unknown); err != nil {
		return err
	}
	if cs, ok := w.(wrapper.CounterSink); ok {
		// A source joining a traced mediator reports into the live sink
		// from its first query on.
		cs.SetObsCounters(m.counters())
	}
	srcs := maps.Clone(v.srcs)
	srcs[name] = src
	m.publishLocked(srcs, v.DropResult(), "")
	return nil
}

// dataVersion is w's data version, 0 when w is unversioned.
func dataVersion(w wrapper.Wrapper) uint64 {
	if v, ok := w.(wrapper.Versioned); ok {
		return v.DataVersion()
	}
	return 0
}

// exportCM exports CM(S) over the wire and decodes it onto next — a
// GCMX model, or the facts a CM plug-in translates another format to —
// unless next already holds the export of data version version. next is
// a Source not yet published.
func (m *Mediator) exportCM(next *Source, version uint64) error {
	if version != 0 && version == next.exported {
		return nil
	}
	format, doc, err := next.W.ExportCM()
	if err != nil {
		return fmt.Errorf("mediator: source %s: export: %w", next.Name, err)
	}
	if format == "gcmx" {
		model, err := decodeGCMX(next.Name, doc)
		if err != nil {
			return err
		}
		next.Model, next.Facts = model, nil
	} else {
		facts, err := m.registry.Translate(format, doc)
		if err != nil {
			return fmt.Errorf("mediator: source %s: %w", next.Name, err)
		}
		next.Model, next.Facts = nil, facts
	}
	next.exported = version
	return nil
}

// decodeGCMX validates and decodes a GCMX document into a model.
func decodeGCMX(source string, doc []byte) (*gcm.Model, error) {
	if err := xmlio.ValidateGCMX(doc); err != nil {
		return nil, fmt.Errorf("mediator: source %s: invalid GCMX document: %w", source, err)
	}
	model, err := xmlio.DecodeModel(doc)
	if err != nil {
		return nil, fmt.Errorf("mediator: source %s: decode: %w", source, err)
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("mediator: source %s: %w", source, err)
	}
	return model, nil
}

// Unregister removes a source, its state and its anchors.
func (m *Mediator) Unregister(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.base.Load()
	srcs := maps.Clone(v.srcs)
	delete(srcs, name)
	m.publishLocked(srcs, v.DropSource(name), "")
}

// RegisterKnowledge extends the domain map with DL axioms sent by a
// source (Figure 3: registering MyNeuron and MyDendrite).
func (m *Mediator) RegisterKnowledge(axioms ...dl.Axiom) error {
	if err := m.dm.AddAxioms(axioms...); err != nil {
		return err
	}
	m.mu.Lock()
	v := m.base.Load()
	m.publishLocked(v.srcs, v.DropResult(), "")
	m.mu.Unlock()
	return nil
}

// DefineView registers an integrated view definition written in the
// rule language. View rules see the namespaced source facts, the GCM
// predicates, and the domain-map graph predicates.
func (m *Mediator) DefineView(src string) error {
	rules, err := parser.ParseRules(src)
	if err != nil {
		return fmt.Errorf("mediator: view: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	privateAux(fmt.Sprintf("v%d", len(m.viewText)), nil, rules)
	m.views = append(m.views, rules...)
	m.viewText = append(m.viewText, src)
	v := m.base.Load()
	m.publishLocked(v.srcs, v.DropResult(), "")
	return nil
}

// privateAux renames the auxiliary predicates of one view's parse (see
// parser.AuxPrefix) apart from every other view's, suffixing tag in the
// body and the rules alike. A query's own stay as parsed: they run in a
// layer of their own (see queryResult).
func privateAux(tag string, body []datalog.BodyElem, rules []datalog.Rule) {
	for i, e := range body {
		if l, ok := e.(datalog.Literal); ok && strings.HasPrefix(l.Pred, parser.AuxPrefix) {
			l.Pred += "_" + tag
			body[i] = l
		}
	}
	for i := range rules {
		if strings.HasPrefix(rules[i].Head.Pred, parser.AuxPrefix) {
			rules[i].Head.Pred += "_" + tag
		}
		privateAux(tag, rules[i].Body, nil)
	}
}

// Views returns the registered view texts.
func (m *Mediator) Views() []string {
	return slices.Clone(m.base.Load().viewText)
}

// Answer is the result of a mediator query.
type Answer struct {
	// Vars are the answer's columns. They are the prepared query's,
	// shared with every answer to the same text and vars: read-only.
	Vars []string
	// Rows are the answer's distinct rows, sorted; their cells are
	// read-only (see datalog.Cell).
	Rows [][]datalog.Cell
	// Missing names, in order, the registered sources the answer was
	// computed without: down, or not read yet. Nil when it was computed
	// over every source.
	Missing []string
	// Stamp is the stamp of the value the answer was read from (nil for
	// an answer over facts the caller passed in). It is shared, not
	// copied.
	Stamp *Stamp
	// Span is this query's own span tree (nil when tracing is off).
	// Unlike LastTrace — which concurrent queries overwrite — Span is
	// race-free per answer, so the serving layer can attach the trace to
	// the request that produced it.
	Span *obs.Span
}

// Query parses and evaluates a conjunctive query (rule-language body)
// against the materialized mediated object base. vars selects the
// output columns; when empty, all query variables are returned in order
// of first occurrence.
func (m *Mediator) Query(q string, vars ...string) (*Answer, error) {
	return m.QueryCtx(context.Background(), q, vars...)
}

// QueryCtx is Query under the caller's context: a server deadline or
// client disconnect cancels the source fan-out instead of orphaning it.
// Cancellation surfaces as the context's error; it never trips retries
// or circuit breakers (it says nothing about source health).
func (m *Mediator) QueryCtx(ctx context.Context, q string, vars ...string) (*Answer, error) {
	sp := m.startSpan("mediator.query")
	defer m.endTrace(sp)
	psp := sp.Child("parse")
	p, err := m.Prepare(q, vars)
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("mediator: query: %w", err)
	}
	return m.query(ctx, sp, p)
}

// QueryParsed is QueryCtx over a query the caller has already prepared
// with Prepare, so a server that prepared it to key its cache does not
// look it up again.
func (m *Mediator) QueryParsed(ctx context.Context, p *Prepared) (*Answer, error) {
	sp := m.startSpan("mediator.query")
	defer m.endTrace(sp)
	return m.query(ctx, sp, p)
}

func (m *Mediator) query(ctx context.Context, sp *obs.Span, p *Prepared) (*Answer, error) {
	msp := sp.Child("materialize")
	v, err := m.materialize(ctx, msp)
	msp.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The query is evaluated over the one Result loaded, so a
	// concurrent source move cannot tear the answer.
	esp := sp.Child("evaluate")
	rows, st, err := queryResult(ctx, v.Result(), p)
	esp.SetInt("rows", int64(len(rows)))
	esp.SetInt("solutions", int64(st.Solutions))
	compiled := int64(0)
	if st.Compiled {
		compiled = 1
	}
	esp.SetInt("compiled", compiled)
	esp.End()
	if err != nil {
		return nil, fmt.Errorf("mediator: query: %w", err)
	}
	return &Answer{Vars: p.Vars, Rows: rows, Missing: v.missing(), Stamp: v.stamp, Span: sp}, nil
}

// Holds reports whether a ground fact is true in the materialized base.
func (m *Mediator) Holds(pred string, args ...term.Term) (bool, error) {
	res, err := m.Materialize()
	if err != nil {
		return false, err
	}
	return res.Holds(pred, args...), nil
}

// bridgeSrc are the rules lifting namespaced source facts into the
// global GCM predicates, so the FL axioms and schema-level reasoning
// apply across the federation.
const bridgeSrc = `
	instance(O, C) :- src_obj(S, O, C).
	subclass(C1, C2) :- src_sub(S, C1, C2).
	methodinst(O, M, V) :- src_val(S, O, M, V).
	% The domain map's isa edges are subclass knowledge: instances of a
	% concept classify upward along them.
	subclass(C1, C2) :- dm_isa(C1, C2).
`

// bridgeRules returns fresh copies of the bridge rules.
func bridgeRules() []datalog.Rule { return parser.MustParseRules(bridgeSrc) }

// Materialize evaluates the program (ruleSetsLocked plus each source's
// semantic rules) over the source states the mediator holds. The result
// is cached: a source move patches it, and after a program change the
// next read re-evaluates the same source states, reading first every
// registered source it holds none of.
func (m *Mediator) Materialize() (*datalog.Result, error) {
	return m.MaterializeCtx(context.Background())
}

// MaterializeCtx is Materialize under the caller's context; see
// QueryCtx for the cancellation contract.
func (m *Mediator) MaterializeCtx(ctx context.Context) (*datalog.Result, error) {
	sp := m.startSpan("mediator.materialize")
	v, err := m.materialize(ctx, sp)
	m.endTrace(sp)
	if err != nil {
		return nil, err
	}
	return v.Result(), nil
}

// materialize is Materialize with the caller's context and span
// threaded through (nil span when tracing is off; the caller owns
// ending it), returning the published value. A value with a result is
// returned without a lock, whatever sources it lacks (SyncSources
// re-admits a down one). Only a value with no result takes m.mu to
// build one, reading every source it holds no state of (readAhead).
func (m *Mediator) materialize(ctx context.Context, sp *obs.Span) (*published, error) {
	if v := m.base.Load(); v.Result() != nil {
		sp.SetStr("cache", "hit")
		return v, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v := m.base.Load(); v.Result() == nil {
		pulls, _, err := m.readAhead(ctx, v, nil, sp)
		if err == nil {
			err = m.buildReadsLocked(ctx, v, pulls, sp)
		}
		if err != nil {
			return nil, err
		}
	}
	return m.base.Load(), nil
}

// buildLocked builds the current program over states, of the registered
// sources srcs, adopting store if it is not nil (srcstate.Build), and
// publishes the Base built. Called with m.mu held.
func (m *Mediator) buildLocked(ctx context.Context, srcs map[string]*Source, states map[string]*srcstate.State, store *datalog.Store, sp *obs.Span) error {
	e, err := m.newProgramEngineLocked(sp)
	if err != nil {
		return err
	}
	b, err := srcstate.Build(ctx, e, states, store)
	if err != nil {
		return fmt.Errorf("mediator: materialize: %w", err)
	}
	m.publishLocked(srcs, b, m.programSigLocked())
	return nil
}

// ruleSetsLocked assembles the mediator-level rule program: F-logic
// axioms, the GCM bridge, the domain map (concept and role facts plus
// transitive closure), the integrated views, and — when enabled — the
// DL instance-expansion rules. Source semantic rules are not included;
// they join the program per source. Called with m.mu held.
func (m *Mediator) ruleSetsLocked() [][]datalog.Rule {
	ruleSets := [][]datalog.Rule{
		flogic.Axioms(),
		bridgeRules(),
		m.dm.Facts(),
		m.dm.RoleFacts(),
		domainmap.ClosureRules(),
		m.views,
	}
	if m.opts.ExecuteDMInstances {
		ruleSets = append(ruleSets, dl.SupportRules(), m.dm.InstanceRules(dl.ModeAssertion).Rules)
	}
	return ruleSets
}

// newProgramEngineLocked builds a fresh engine loaded with the
// mediator-level rule program (no source rules, no facts). Called with
// m.mu held.
func (m *Mediator) newProgramEngineLocked(sp *obs.Span) (*datalog.Engine, error) {
	eo := m.opts.Engine
	eo.Trace = sp
	eo.Counters = m.counters()
	e := datalog.NewEngine(&eo)
	for _, rs := range m.ruleSetsLocked() {
		if err := e.AddRules(rs...); err != nil {
			return nil, fmt.Errorf("mediator: materialize: %w", err)
		}
	}
	return e, nil
}

// isGroundFact reports whether r is an empty-body rule with a fully
// ground head — the shape that can live in the engine's EDB.
func isGroundFact(r datalog.Rule) bool {
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

// mergeReports folds a guarded read's reports into the mediator-level
// merge-by-source view behind SourceReports.
func (m *Mediator) mergeReports(reps []SourceReport) {
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	if m.lastReports == nil {
		m.lastReports = make(map[string]SourceReport, len(reps))
	}
	for _, r := range reps {
		m.lastReports[r.Source] = r
	}
}

// SourceReports returns each source's most recent fault-tolerance
// report across all guarded reads — a build, a refresh or sync, and
// PushSelect — sorted by source (nil when the layer is disabled or
// nothing guarded has run). StatusFailed means the source was down; one
// the mediator held no state of is left out (Answer.Missing) until a
// writer reads it again: SyncSources, RefreshSource or Invalidate.
func (m *Mediator) SourceReports() []SourceReport {
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	if len(m.lastReports) == 0 {
		return nil
	}
	out := make([]SourceReport, 0, len(m.lastReports))
	for _, r := range m.lastReports {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// Invalidate drops the cache and every source state the mediator
// holds, so the next read builds over every source read again
// (SyncSources re-admits a down source and keeps the others).
func (m *Mediator) Invalidate() {
	m.mu.Lock()
	m.publishLocked(m.base.Load().srcs, srcstate.Base{}, "")
	m.mu.Unlock()
}

// Explain returns a derivation tree for a ground fact of the
// materialized mediated object base — the provenance of a view tuple:
// which rules fired over which source facts.
func (m *Mediator) Explain(pred string, args ...term.Term) (*datalog.Derivation, error) {
	sp := m.startSpan("mediator.materialize")
	v, err := m.materialize(context.Background(), sp)
	m.endTrace(sp)
	if err != nil {
		return nil, err
	}
	return v.Engine().Explain(v.Result(), pred, args...)
}

// pull is what a writer read of one source through its wrapper
// (readSource): the next Source, a copy carrying the export, anchors
// and contexts read, the state read, and the anchor concepts the domain
// map did not know, which its commit adds (growLocked).
type pull struct {
	src     *Source
	st      *srcstate.State
	unknown []string
}

// readSource is the one way the mediator reads a source through its
// wrapper: the data version first (a mutation racing the read leaves it
// behind, and the next SyncSources reads again), then CM(S) exported
// again (exportCM), its instance data pulled through the guard g, if
// any (guardedSourceFacts), and the anchor and context report
// (takeReport). It writes neither s nor the domain map.
func (m *Mediator) readSource(g *guard, s *Source) (*pull, error) {
	next := *s
	p := &pull{src: &next, st: srcstate.NewState(dataVersion(s.W))}
	if err := m.exportCM(p.src, p.st.Version); err != nil {
		return nil, err
	}
	facts, err := guardedSourceFacts(g, p.src)
	if err != nil {
		return nil, err
	}
	if p.unknown, err = m.takeReport(p.src); err != nil {
		return nil, err
	}
	for _, r := range facts {
		if isGroundFact(r) {
			p.st.Facts.Insert(r.Head.Pred, r.Head.Args)
		} else {
			p.st.Rules = append(p.st.Rules, r)
		}
	}
	p.st.Anchors = p.src.anchors
	return p, nil
}

// sourceFacts renders one source's exported CM(S) in the namespaced
// vocabulary: the unguarded half of readSource's pull (see
// guardedSourceFacts).
func sourceFacts(s *Source) ([]datalog.Rule, error) {
	sn := term.Atom(s.Name)
	var out []datalog.Rule
	if s.Model != nil {
		// Schema facts, subclass links, instances, and tuples come from
		// the shared renderer — the same one streaming wrappers diff
		// against, so the pull and push paths cannot disagree.
		out = append(out, wrapper.ModelFacts(s.Name, s.Model)...)
		// Source semantic rules run as-is at the mediator ("semantic
		// rules that are evaluable at the mediator").
		out = append(out, s.Model.Rules...)
		return out, nil
	}
	// Fact-level source: namespace the plug-in output.
	for _, f := range s.Facts {
		l := f.Head
		switch {
		case l.Pred == "instance" && len(l.Args) == 2:
			if l.Args[1].Equal(term.Atom(flogic.MetaClass)) {
				continue
			}
			out = append(out, datalog.Fact(PredSrcObj, sn, l.Args[0], l.Args[1]))
		case l.Pred == "subclass" && len(l.Args) == 2:
			out = append(out, datalog.Fact(PredSrcSub, sn, l.Args[0], l.Args[1]))
		case l.Pred == "methodinst" && len(l.Args) == 3:
			out = append(out, datalog.Fact(PredSrcVal, sn, l.Args[0], l.Args[1], l.Args[2]))
		case l.Pred == "relinst":
			args := append([]term.Term{sn}, l.Args...)
			out = append(out, datalog.Fact(PredSrcTuple, args...))
		default:
			// Schema-level facts (method, rel, relattr) stay global.
			out = append(out, f)
		}
	}
	return out, nil
}
