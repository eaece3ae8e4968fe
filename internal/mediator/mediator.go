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
	"runtime"
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

	// The fault-tolerance layer (see fault.go). Setting any of
	// SourceTimeout, MaxRetries or Breaker.Threshold switches the
	// mediator's source reads (Materialize, a source move, PushSelect)
	// to the guarded path: instance data is pulled through the live
	// wrappers under a per-call deadline, transient failures are
	// retried with exponential backoff + jitter, repeatedly failing
	// sources trip a circuit breaker, and sources that stay down are
	// dropped from the answer (graceful degradation) with a
	// SourceReport instead of failing the whole query.

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
	// open breaker rejects calls for Cooldown (default 1s).
	Breaker breaker.Config
	// FailFast disables graceful degradation: a source that exhausts
	// its retry budget fails the whole query instead of being dropped.
	FailFast bool
}

// Source is a registered source as the mediator sees it.
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
	// reported at Register or at the last read of the source
	// (readSource); nothing else writes them. Guarded by the mediator's
	// mu.
	anchors  *datalog.Store
	contexts map[string][]term.Term
	// exported is the data version Model or Facts was exported at (0 =
	// unversioned, so every read exports again).
	exported uint64
}

// Mediator is the model-based mediator.
type Mediator struct {
	mu       sync.Mutex
	opts     Options
	dm       *domainmap.DomainMap
	index    *domainmap.SemanticIndex
	registry *xmlio.Registry
	srcs     map[string]*Source
	views    []datalog.Rule
	viewText []string

	// base is the published value: the source states and the current
	// program's result over them, the cache (see incr.go). Readers load
	// it and take no lock; writers, under m.mu, store the next value
	// (publishLocked) and never write a stored one, so every answer
	// reflects exactly one published state, never a torn mix. The next
	// build reads a registered source without a state through its
	// wrapper; with no result, the next read builds one.
	base atomic.Pointer[published]

	// deltaLog, when set, receives a WAL record for every source move
	// (and a Full marker for every source a build reads) while m.mu is
	// held, so records are appended in exactly the order they landed.
	// replaying suppresses it during WAL replay so recovery does not
	// re-log its own input (see persist.go).
	deltaLog  func(*persist.WALRecord)
	replaying bool

	// lastReports is the mediator-level merge-by-source view of the
	// guarded fan-outs' SourceReports: each guarded read (Materialize, a
	// source move, PushSelect) folds its reports in keyed by source
	// name, so under concurrent reads every source keeps its most recent
	// report instead of one read's report set wholesale overwriting
	// another's. Nil when the fault-tolerance layer is off.
	lastReports map[string]SourceReport

	// brMu guards breakers, the per-source circuit-breaker states,
	// which persist across queries.
	brMu     sync.Mutex
	breakers map[string]*breaker.Breaker

	// obsMu guards the observability state (see obs.go); separate from
	// m.mu because Materialize holds m.mu for its whole body.
	obsMu    sync.Mutex
	obsOn    bool
	obsCtr   *obs.Counters
	lastSpan *obs.Span
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
		srcs:     make(map[string]*Source),
	}
	m.index = domainmap.NewIndex(m.walkAnchors)
	m.publishLocked(srcstate.Base{}, "")
	return m
}

// published is what the mediator publishes: a Base and what readers
// need of the program it was built under. Nothing writes one once it
// is stored.
type published struct {
	srcstate.Base
	// views are the program's view rules, whose heads
	// ValidateVocabulary admits.
	views []datalog.Rule
	// sig fingerprints the program Result was built under
	// (programSigLocked); "" without a Result.
	sig string
	// degraded reports that the Base holds no state of some registered
	// source, so its Result lacks that source.
	degraded bool
}

// publishLocked publishes b, built under the program of signature sig,
// with the current view rules. Called with m.mu held.
func (m *Mediator) publishLocked(b srcstate.Base, sig string) {
	m.base.Store(&published{Base: b, views: m.views, sig: sig, degraded: b.Len() < len(m.srcs)})
}

// DomainMap returns the mediator's domain map.
func (m *Mediator) DomainMap() *domainmap.DomainMap { return m.dm }

// Index returns the semantic index, a view over the sources' anchor
// facts (see walkAnchors).
func (m *Mediator) Index() *domainmap.SemanticIndex { return m.index }

// anchorKey is the store key of the anchor/3 facts.
var anchorKey = datalog.PredKey(PredAnchor, 3)

// anchorsLocked returns the anchor facts the semantic index reads for s:
// the ones the mediator holds when it holds a state of s, else the
// ones s last reported — before the first materialization, after
// Invalidate or a restore that was not adopted, and for a source the
// last materialization dropped as down. Called with m.mu held.
func (m *Mediator) anchorsLocked(s *Source) *datalog.Store {
	if st := m.base.Load().State(s.Name); st != nil {
		return st.Anchors
	}
	return s.anchors
}

// walkAnchors is the semantic index's walk: every registered source's
// anchors (anchorsLocked) and contexts, under m.mu.
func (m *Mediator) walkAnchors(yield func(domainmap.SourceAnchors) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, s := range m.srcs {
		if !yield(domainmap.SourceAnchors{Source: name, Anchors: m.anchorsLocked(s).Rel(anchorKey), Contexts: s.contexts}) {
			return
		}
	}
}

// takeReport replaces s's anchors (as anchor/3 facts) and contexts
// with what its wrapper reports now. Concepts the domain map does not
// know grow the map (grew) or, under StrictAnchors, refuse the report
// and leave s as it was.
func (m *Mediator) takeReport(s *Source) (grew bool, err error) {
	anchors, err := s.W.Anchors()
	if err != nil {
		return false, fmt.Errorf("mediator: source %s: anchors: %w", s.Name, err)
	}
	contexts, err := s.W.Contexts()
	if err != nil {
		return false, fmt.Errorf("mediator: source %s: contexts: %w", s.Name, err)
	}
	concepts := make([]string, 0, len(anchors))
	for c := range anchors {
		concepts = append(concepts, c)
	}
	sort.Strings(concepts)
	st := datalog.NewStore()
	var unknown []string
	for _, concept := range concepts {
		if !m.dm.HasConcept(concept) {
			unknown = append(unknown, concept)
		}
		for _, obj := range anchors[concept] {
			if !obj.IsGround() {
				return false, fmt.Errorf("mediator: source %s: anchor %s at %s is not ground", s.Name, obj, concept)
			}
			st.Insert(PredAnchor, []term.Term{term.Atom(s.Name), obj, term.Atom(concept)})
		}
	}
	if len(unknown) > 0 {
		if m.opts.StrictAnchors {
			return false, fmt.Errorf("mediator: source %s anchors at unknown concepts %s; register the knowledge first (RegisterKnowledge)",
				s.Name, strings.Join(unknown, ", "))
		}
		var axioms []dl.Axiom
		for _, c := range unknown {
			axioms = append(axioms, dl.Sub(c, dl.C("thing")))
		}
		if err := m.dm.AddAxioms(axioms...); err != nil {
			return false, err
		}
	}
	s.anchors, s.contexts = st, contexts
	return len(unknown) > 0, nil
}

// Registry returns the CM plug-in registry, so new formats can be
// plugged in at runtime.
func (m *Mediator) Registry() *xmlio.Registry { return m.registry }

// Sources returns the registered source names, sorted.
func (m *Mediator) Sources() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.srcs))
	for n := range m.srcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Source returns a registered source by name.
func (m *Mediator) Source(name string) (*Source, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.srcs[name]
	return s, ok
}

// Register wires a source into the mediated system (the runtime flow of
// Figure 2): the wrapper exports CM(S) over the XML wire, the mediator
// decodes it through the plug-in registry, records the query
// capabilities, and anchors the source's data in the domain map: the
// anchor facts it stores on the source are what the semantic index
// reads. These are readSource's export and report; its pull is left to
// the next build.
func (m *Mediator) Register(w wrapper.Wrapper) error {
	name := w.Name()
	src := &Source{Name: name, W: w, Caps: w.Capabilities()}
	if err := m.exportCM(src, dataVersion(w)); err != nil {
		return err
	}
	if _, err := m.takeReport(src); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.srcs[name]; dup {
		return fmt.Errorf("mediator: source %s already registered", name)
	}
	m.srcs[name] = src
	if cs, ok := w.(wrapper.CounterSink); ok {
		// A source joining a traced mediator reports into the live sink
		// from its first query on.
		cs.SetObsCounters(m.counters())
	}
	m.publishLocked(m.base.Load().DropResult(), "")
	return nil
}

// dataVersion is w's data version, 0 when w is unversioned.
func dataVersion(w wrapper.Wrapper) uint64 {
	if v, ok := w.(wrapper.Versioned); ok {
		return v.DataVersion()
	}
	return 0
}

// exportCM exports CM(S) over the wire and decodes it onto s — a GCMX
// model, or the facts a CM plug-in translates another format to —
// unless s already holds the export of data version version.
func (m *Mediator) exportCM(s *Source, version uint64) error {
	if version != 0 && version == s.exported {
		return nil
	}
	format, doc, err := s.W.ExportCM()
	if err != nil {
		return fmt.Errorf("mediator: source %s: export: %w", s.Name, err)
	}
	if format == "gcmx" {
		model, err := decodeGCMX(s.Name, doc)
		if err != nil {
			return err
		}
		s.Model, s.Facts = model, nil
	} else {
		facts, err := m.registry.Translate(format, doc)
		if err != nil {
			return fmt.Errorf("mediator: source %s: %w", s.Name, err)
		}
		s.Model, s.Facts = nil, facts
	}
	s.exported = version
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
	delete(m.srcs, name)
	m.publishLocked(m.base.Load().DropSource(name), "")
}

// RegisterKnowledge extends the domain map with DL axioms sent by a
// source (Figure 3: registering MyNeuron and MyDendrite).
func (m *Mediator) RegisterKnowledge(axioms ...dl.Axiom) error {
	if err := m.dm.AddAxioms(axioms...); err != nil {
		return err
	}
	m.mu.Lock()
	m.publishLocked(m.base.Load().DropResult(), "")
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
	m.publishLocked(m.base.Load().DropResult(), "")
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
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.viewText...)
}

// Answer is the result of a mediator query.
type Answer struct {
	Vars []string
	Rows [][]term.Term
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
	body, aux, err := parser.ParseQuery(q)
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("mediator: query: %w", err)
	}
	return m.query(ctx, sp, body, aux, vars)
}

// QueryParsed is QueryCtx over a query the caller has already parsed
// with parser.ParseQuery, so a server that parsed it to key its cache
// does not parse it again. body and aux are only read.
func (m *Mediator) QueryParsed(ctx context.Context, body []datalog.BodyElem, aux []datalog.Rule, vars ...string) (*Answer, error) {
	sp := m.startSpan("mediator.query")
	defer m.endTrace(sp)
	return m.query(ctx, sp, body, aux, vars)
}

func (m *Mediator) query(ctx context.Context, sp *obs.Span, body []datalog.BodyElem, aux []datalog.Rule, vars []string) (*Answer, error) {
	if len(vars) == 0 {
		vars = defaultVars(body)
	}
	rows, err := m.queryCache(ctx, sp, body, aux, vars)
	if err != nil {
		return nil, err
	}
	return &Answer{Vars: vars, Rows: rows, Span: sp}, nil
}

// queryCache materializes (or reuses) the cached object base and
// evaluates body, with its auxiliary rules, over the one Result it
// loaded, so a concurrent source move cannot tear the answer.
func (m *Mediator) queryCache(ctx context.Context, sp *obs.Span, body []datalog.BodyElem, aux []datalog.Rule, vars []string) ([][]term.Term, error) {
	msp := sp.Child("materialize")
	v, err := m.materialize(ctx, msp)
	msp.End()
	if err != nil {
		return nil, err
	}
	res := v.Result()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	esp := sp.Child("evaluate")
	rows, st, err := queryResult(ctx, res, body, aux, vars)
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
	return rows, nil
}

// queryResult evaluates body over res. A query's auxiliary rules run in
// a layer over res that is dropped with the answer, so they never join
// the program and the read moves no state.
func queryResult(ctx context.Context, res *datalog.Result, body []datalog.BodyElem, aux []datalog.Rule, vars []string) ([][]term.Term, datalog.QueryStats, error) {
	if len(aux) > 0 {
		var err error
		if res, err = res.Extend(ctx, aux); err != nil {
			return nil, datalog.QueryStats{}, err
		}
	}
	return res.QueryWithStats(ctx, body, vars)
}

// Holds reports whether a ground fact is true in the materialized base.
func (m *Mediator) Holds(pred string, args ...term.Term) (bool, error) {
	res, err := m.Materialize()
	if err != nil {
		return false, err
	}
	return res.Holds(pred, args...), nil
}

// sortedSources returns sources in name order (deterministic
// materialization).
func (m *Mediator) sortedSources() []*Source {
	out := make([]*Source, 0, len(m.srcs))
	for _, s := range m.srcs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
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
// semantic rules) over the source states the mediator holds, reading
// first every registered source it holds none of. The result is cached:
// a source move patches it, and after a program change the next read
// re-evaluates the same source states.
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
// ending it), returning the published value. A hit loads it and takes
// no lock; only a build (materializeLocked) and a degraded cache, which
// may be due a re-probe, take m.mu.
func (m *Mediator) materialize(ctx context.Context, sp *obs.Span) (*published, error) {
	if v := m.base.Load(); v.Result() != nil && !v.degraded {
		sp.SetStr("cache", "hit")
		return v, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.materializeLocked(ctx, sp)
}

// materializeLocked returns the published value, building it first when
// it has no result or a degraded cache's dropped source is due another
// probe. The build reads every source the mediator holds no state of
// (readSource, concurrently; under the fault-tolerance layer one that
// stays down is dropped, which degrades the cache), then evaluates the
// program over all held states. Each source read gets a Full marker in
// the log: it moved without a logged move. Called with m.mu held.
func (m *Mediator) materializeLocked(ctx context.Context, sp *obs.Span) (*published, error) {
	v := m.base.Load()
	if v.Result() != nil && !(v.degraded && m.reprobeDue()) {
		sp.SetStr("cache", "hit")
		return v, nil
	}
	m.publishLocked(v.DropResult(), "")
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var missing []*Source
	for _, s := range m.sortedSources() {
		if v.State(s.Name) == nil {
			missing = append(missing, s)
		}
	}
	g := m.newGuardCtx(ctx)
	fsp := sp.Child("sources")
	read := make([]*srcstate.State, len(missing))
	errs := eachSource(missing, fsp, func(i int) (facts int, err error) {
		if read[i], _, err = m.readSource(g, missing[i]); err != nil {
			return 0, err
		}
		return read[i].Facts.Size(), nil
	})
	if err := ctx.Err(); err != nil {
		// A cancelled fan-out must not be cached as a (partial) result.
		fsp.End()
		return nil, err
	}
	states := v.States()
	for i, s := range missing {
		if errs[i] != nil {
			if g != nil && !m.opts.FailFast && sourceDown(errs[i]) {
				g.markFailed(s.Name, errs[i])
				m.counters().Add("mediator.sources_dropped", 1)
				continue
			}
			fsp.End()
			return nil, errs[i]
		}
		states[s.Name] = read[i]
	}
	g.annotate(fsp)
	fsp.End()
	if err := m.buildLocked(ctx, states, nil, sp); err != nil {
		return nil, err
	}
	m.mergeReportsLocked(g.Reports())
	for i, s := range missing {
		if errs[i] == nil {
			m.logDeltaLocked(&persist.WALRecord{Source: s.Name, Full: true})
		}
	}
	return m.base.Load(), nil
}

// buildLocked builds the current program over states, of registered
// sources, adopting store if it is not nil (srcstate.Build), and
// publishes the Base built. Called with m.mu held.
func (m *Mediator) buildLocked(ctx context.Context, states map[string]*srcstate.State, store *datalog.Store, sp *obs.Span) error {
	e, err := m.newProgramEngineLocked(sp)
	if err != nil {
		return err
	}
	b, err := srcstate.Build(ctx, e, states, store)
	if err != nil {
		return fmt.Errorf("mediator: materialize: %w", err)
	}
	m.publishLocked(b, m.programSigLocked())
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

// mergeReportsLocked folds per-query reports into the mediator-level
// merge-by-source view behind SourceReports. Called with m.mu held.
func (m *Mediator) mergeReportsLocked(reps []SourceReport) {
	if len(reps) == 0 {
		return
	}
	if m.lastReports == nil {
		m.lastReports = make(map[string]SourceReport, len(reps))
	}
	for _, r := range reps {
		m.lastReports[r.Source] = r
	}
}

// mergeReports is mergeReportsLocked for callers not holding m.mu.
func (m *Mediator) mergeReports(reps []SourceReport) {
	if len(reps) == 0 {
		return
	}
	m.mu.Lock()
	m.mergeReportsLocked(reps)
	m.mu.Unlock()
}

// reprobeDue reports whether a degraded cache should be refreshed:
// some source that was dropped is due another contact attempt, i.e. its
// circuit breaker has cooled down (re-probes are thereby rate-limited
// to one round per cooldown; a re-probe that fails again re-opens the breaker
// and the degraded cache is served until the next cooldown elapses).
// Without a breaker configured there is no cooldown to pace re-probes
// by, so the cache stands until the caller invalidates it manually.
// Called with m.mu held.
func (m *Mediator) reprobeDue() bool {
	if m.opts.Breaker.Threshold <= 0 {
		return false
	}
	for _, r := range m.lastReports {
		if r.Status == StatusFailed && m.breakerFor(r.Source).Allow() {
			return true
		}
	}
	return false
}

// SourceReports returns each source's most recent fault-tolerance
// report across all guarded fan-outs — Materialize, a source move and
// PushSelect — merged by source name and sorted (nil when the layer is
// disabled or nothing guarded has run). Because concurrent reads
// merge rather than overwrite, a read that never touched source X
// leaves X's report from the read that did intact. A Status of
// StatusFailed means the source was dropped and the answer degrades
// over the survivors. With a breaker configured the next query after
// the breaker's cooldown re-probes the failed source automatically;
// without one, call Invalidate to re-pull once the source recovers.
func (m *Mediator) SourceReports() []SourceReport {
	m.mu.Lock()
	defer m.mu.Unlock()
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
// holds, so the next Materialize reads every source again — e.g. after
// a degraded run, to re-admit a recovered source immediately (or at
// all, when no breaker is configured to pace automatic re-probes).
func (m *Mediator) Invalidate() {
	m.mu.Lock()
	m.publishLocked(srcstate.Base{}, "")
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

// readSource is the one way the mediator reads a source through its
// wrapper: the data version first (a mutation racing the read leaves it
// behind, and the next SyncSources reads again), then CM(S) exported
// again (exportCM), its instance data pulled through the guard g, if
// any (guardedSourceFacts), and the anchor and context report
// (takeReport). It returns the state read and whether the report grew
// the domain map.
func (m *Mediator) readSource(g *guard, s *Source) (*srcstate.State, bool, error) {
	st := srcstate.NewState(dataVersion(s.W))
	if err := m.exportCM(s, st.Version); err != nil {
		return nil, false, err
	}
	facts, err := guardedSourceFacts(g, s)
	if err != nil {
		return nil, false, err
	}
	grew, err := m.takeReport(s)
	if err != nil {
		return nil, false, err
	}
	for _, r := range facts {
		if isGroundFact(r) {
			st.Facts.Insert(r.Head.Pred, r.Head.Args)
		} else {
			st.Rules = append(st.Rules, r)
		}
	}
	st.Anchors = s.anchors // takeReport replaces it, never writes it
	return st, grew, nil
}

// eachSource runs fn(i) for every source concurrently (one task per
// source, at most GOMAXPROCS at a time) and returns the errors
// positionally, so callers can merge the results in deterministic
// source order. A non-nil sp gets one child span per source, created
// serially for deterministic order and annotated with the fact count fn
// returns.
func eachSource(srcs []*Source, sp *obs.Span, fn func(i int) (facts int, err error)) []error {
	errs := make([]error, len(srcs))
	spans := make([]*obs.Span, len(srcs))
	if sp != nil {
		for i, s := range srcs {
			spans[i] = sp.Child("source " + s.Name)
		}
	}
	fanOut(len(srcs), runtime.GOMAXPROCS(0), func(i int) {
		var n int
		n, errs[i] = fn(i)
		if spans[i] != nil {
			spans[i].SetInt("facts", int64(n))
			if errs[i] != nil {
				spans[i].SetStr("error", errs[i].Error())
			}
			spans[i].End()
		}
	})
	return errs
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
