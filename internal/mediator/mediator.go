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
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/dl"
	"modelmed/internal/domainmap"
	"modelmed/internal/flogic"
	"modelmed/internal/gcm"
	"modelmed/internal/obs"
	"modelmed/internal/parser"
	"modelmed/internal/persist"
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
	// mediator's source fan-out (Materialize, ExecutePlan, PushSelect)
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
	// Breaker configures the per-source circuit breaker.
	Breaker BreakerOptions
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

	// evalMu orders cached-store readers against in-place patches:
	// Query/Holds/Explain evaluate over the cached Result *outside*
	// m.mu, while the incremental layer (ApplySourceDelta,
	// RefreshSource, SyncSources) mutates that same store in place via
	// the engine's delta API. Readers hold the read side across
	// materialize+evaluate and patchers the write side across the whole
	// patch, so every answer reflects exactly a pre- or post-delta
	// state, never a torn mix. Lock order: evalMu before m.mu.
	evalMu sync.RWMutex

	dirty       bool
	cache       *datalog.Result
	cacheEngine *datalog.Engine
	// snaps records, per source, the facts/rules/anchors the cached
	// materialization was built from plus the wrapper data version, so
	// source changes can be diffed and patched into the cache instead of
	// invalidating it (see incr.go).
	snaps map[string]*srcSnapshot
	// cacheDegraded marks a cached materialization that dropped at least
	// one source; such a cache is only served while re-probing the
	// failed sources is not yet due (see reprobeDue).
	cacheDegraded bool

	// deltaLog, when set, receives a WAL record for every applied
	// incremental patch (and a Full marker for every fallback rebuild)
	// while m.mu is held, so records are appended in exactly the order
	// the patches landed. replaying suppresses it during WAL replay so
	// recovery does not re-log its own input (see persist.go).
	deltaLog  func(*persist.WALRecord)
	replaying bool

	// lastReports is the mediator-level merge-by-source view of the
	// guarded fan-outs' SourceReports: each guarded query (Materialize,
	// ExecutePlan, PushSelect) folds its per-query reports in keyed by
	// source name, so under concurrent queries every source keeps its
	// most recent report instead of one query's report set wholesale
	// overwriting another's. Per-query reports stay on the result path
	// (QueryPlan.Reports). Nil when the fault-tolerance layer is off.
	lastReports map[string]SourceReport

	// brMu guards breakers, the per-source circuit-breaker states,
	// which persist across queries.
	brMu     sync.Mutex
	breakers map[string]*breaker

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
	return &Mediator{
		opts:     o,
		dm:       dm,
		index:    domainmap.NewIndex(),
		registry: xmlio.NewRegistry(),
		srcs:     make(map[string]*Source),
		dirty:    true,
	}
}

// DomainMap returns the mediator's domain map.
func (m *Mediator) DomainMap() *domainmap.DomainMap { return m.dm }

// Index returns the semantic index.
func (m *Mediator) Index() *domainmap.SemanticIndex { return m.index }

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
// capabilities, and anchors the source's data in the domain map,
// updating the semantic index.
func (m *Mediator) Register(w wrapper.Wrapper) error {
	name := w.Name()
	format, doc, err := w.ExportCM()
	if err != nil {
		return fmt.Errorf("mediator: source %s: export: %w", name, err)
	}
	src := &Source{Name: name, W: w, Caps: w.Capabilities()}
	if format == "gcmx" {
		model, err := decodeGCMX(name, doc)
		if err != nil {
			return err
		}
		src.Model = model
	} else {
		facts, err := m.registry.Translate(format, doc)
		if err != nil {
			return fmt.Errorf("mediator: source %s: %w", name, err)
		}
		src.Facts = facts
	}
	anchors, err := w.Anchors()
	if err != nil {
		return fmt.Errorf("mediator: source %s: anchors: %w", name, err)
	}
	contexts, err := w.Contexts()
	if err != nil {
		return fmt.Errorf("mediator: source %s: contexts: %w", name, err)
	}
	if err := m.checkAnchors(name, anchors); err != nil {
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
	for concept, objs := range anchors {
		m.index.Register(name, concept, objs...)
	}
	for key, vals := range contexts {
		for _, v := range vals {
			m.index.RegisterContext(name, key, v)
		}
	}
	m.dirty = true
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

// checkAnchors validates anchor concepts against the domain map,
// adding unknown ones when the mediator is not strict.
func (m *Mediator) checkAnchors(source string, anchors map[string][]term.Term) error {
	var unknown []string
	for concept := range anchors {
		if !m.dm.HasConcept(concept) {
			unknown = append(unknown, concept)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	if m.opts.StrictAnchors {
		return fmt.Errorf("mediator: source %s anchors at unknown concepts %s; register the knowledge first (RegisterKnowledge)",
			source, strings.Join(unknown, ", "))
	}
	var axioms []dl.Axiom
	for _, c := range unknown {
		axioms = append(axioms, dl.Sub(c, dl.C("thing")))
	}
	return m.dm.AddAxioms(axioms...)
}

// Unregister removes a source and its anchors.
func (m *Mediator) Unregister(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.srcs, name)
	m.index.Unregister(name)
	m.dirty = true
}

// RegisterKnowledge extends the domain map with DL axioms sent by a
// source (Figure 3: registering MyNeuron and MyDendrite).
func (m *Mediator) RegisterKnowledge(axioms ...dl.Axiom) error {
	if err := m.dm.AddAxioms(axioms...); err != nil {
		return err
	}
	m.mu.Lock()
	m.dirty = true
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
	m.views = append(m.views, rules...)
	m.viewText = append(m.viewText, src)
	m.dirty = true
	return nil
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
	if len(aux) > 0 {
		// Negated groups need their auxiliary rules evaluated with the
		// program; register them transiently.
		m.mu.Lock()
		m.views = append(m.views, aux...)
		m.dirty = true
		m.mu.Unlock()
		defer func() {
			m.mu.Lock()
			m.views = m.views[:len(m.views)-len(aux)]
			m.dirty = true
			m.mu.Unlock()
		}()
	}
	if len(vars) == 0 {
		vars = defaultVars(body)
	}
	rows, err := m.queryCache(ctx, sp, body, vars)
	if err != nil {
		return nil, err
	}
	return &Answer{Vars: vars, Rows: rows, Span: sp}, nil
}

// queryCache materializes (or reuses) the cached object base and
// evaluates body over it, holding the read side of evalMu across both
// steps so a concurrent incremental patch cannot tear the answer.
func (m *Mediator) queryCache(ctx context.Context, sp *obs.Span, body []datalog.BodyElem, vars []string) ([][]term.Term, error) {
	m.evalMu.RLock()
	defer m.evalMu.RUnlock()
	msp := sp.Child("materialize")
	res, err := m.materialize(ctx, msp)
	msp.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	esp := sp.Child("evaluate")
	rows, err := res.QueryCtx(ctx, body, vars)
	esp.SetInt("rows", int64(len(rows)))
	esp.End()
	if err != nil {
		return nil, fmt.Errorf("mediator: query: %w", err)
	}
	return rows, nil
}

// Holds reports whether a ground fact is true in the materialized base.
func (m *Mediator) Holds(pred string, args ...term.Term) (bool, error) {
	m.evalMu.RLock()
	defer m.evalMu.RUnlock()
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

// Materialize pulls all registered source data to the mediator, loads
// the GCM axioms, the domain-map graph and its closure rules, and the
// registered views, and evaluates the program. The result is cached
// until a registration or view definition invalidates it.
func (m *Mediator) Materialize() (*datalog.Result, error) {
	return m.MaterializeCtx(context.Background())
}

// MaterializeCtx is Materialize under the caller's context; see
// QueryCtx for the cancellation contract.
func (m *Mediator) MaterializeCtx(ctx context.Context) (*datalog.Result, error) {
	sp := m.startSpan("mediator.materialize")
	res, err := m.materialize(ctx, sp)
	m.endTrace(sp)
	return res, err
}

// materialize is Materialize with the caller's context and span
// threaded through (nil span when tracing is off; the caller owns
// ending it).
func (m *Mediator) materialize(ctx context.Context, sp *obs.Span) (*datalog.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.materializeLocked(ctx, sp)
}

// materializeLocked is materialize for callers already holding m.mu
// (the incremental-maintenance paths fall back to it when a change
// cannot be patched in).
func (m *Mediator) materializeLocked(ctx context.Context, sp *obs.Span) (*datalog.Result, error) {
	if !m.dirty && m.cache != nil && !(m.cacheDegraded && m.reprobeDue()) {
		sp.SetStr("cache", "hit")
		return m.cache, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := m.newProgramEngineLocked(sp)
	if err != nil {
		return nil, err
	}
	// Translate every source's data concurrently, then collect into the
	// engine in name order, so the materialized program is independent
	// of the fan-out's scheduling. Without the fault-tolerance layer
	// this only reads the registered model/fact snapshots; with it,
	// instance data is re-pulled through the live wrappers under
	// deadline/retry/breaker policy (see guardedSourceFacts), and
	// sources that stay down are dropped from the program instead of
	// failing it.
	g := m.newGuardCtx(ctx)
	srcs := m.sortedSources()
	// Wrapper data versions are read before the pull: a mutation racing
	// the fan-out leaves the recorded version behind the wrapper's, so
	// the next SyncSources re-pulls and converges.
	versions := make([]uint64, len(srcs))
	for i, s := range srcs {
		if v, ok := s.W.(wrapper.Versioned); ok {
			versions[i] = v.DataVersion()
		}
	}
	fsp := sp.Child("sources")
	factSets, errs := translateSources(g, srcs, fsp)
	if err := ctx.Err(); err != nil {
		// A cancelled fan-out must not be cached as a (partial) result.
		fsp.End()
		return nil, err
	}
	failed := map[string]bool{}
	snaps := make(map[string]*srcSnapshot, len(srcs))
	for i, s := range srcs {
		if errs[i] != nil {
			if g != nil && !m.opts.FailFast && sourceDown(errs[i]) {
				g.markFailed(s.Name, errs[i])
				failed[s.Name] = true
				m.counters().Add("mediator.sources_dropped", 1)
				continue
			}
			fsp.End()
			return nil, errs[i]
		}
		// Ground facts go into the engine's EDB — the unit of incremental
		// change — while the source's semantic rules join the program.
		snap := newSrcSnapshot(versions[i])
		for _, r := range factSets[i] {
			if isGroundFact(r) {
				if err := e.AddFact(r.Head.Pred, r.Head.Args...); err != nil {
					fsp.End()
					return nil, fmt.Errorf("mediator: materialize %s: %w", s.Name, err)
				}
				snap.facts.Insert(r.Head.Pred, r.Head.Args)
				continue
			}
			if err := e.AddRule(r); err != nil {
				fsp.End()
				return nil, fmt.Errorf("mediator: materialize %s: %w", s.Name, err)
			}
			snap.ruleSig = append(snap.ruleSig, r.String())
		}
		snaps[s.Name] = snap
	}
	g.annotate(fsp)
	fsp.End()
	for _, concept := range m.index.Concepts() {
		for _, src := range m.index.SourcesAt(concept) {
			if failed[src] {
				// A down source contributes no facts, so its anchors
				// must not dangle into the answer either.
				continue
			}
			for _, obj := range m.index.Objects(src, concept) {
				if err := e.AddFact(PredAnchor, term.Atom(src), obj, term.Atom(concept)); err != nil {
					return nil, err
				}
				if snap := snaps[src]; snap != nil {
					snap.anchors.Insert(PredAnchor, []term.Term{term.Atom(src), obj, term.Atom(concept)})
				}
			}
		}
	}
	// RunCtx makes the request deadline real inside the fixpoint: the
	// budget/context checks run once per round plus every few thousand
	// derived facts, so a cancelled or over-budget materialization stops
	// mid-stratum. The cache stays dirty on error and the next query
	// rebuilds from scratch.
	res, err := e.RunCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("mediator: materialize: %w", err)
	}
	m.cache = res
	m.cacheEngine = e
	m.cacheDegraded = len(failed) > 0
	m.snaps = snaps
	m.mergeReportsLocked(g.Reports())
	m.dirty = false
	return res, nil
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
// to one per cooldown; a re-probe that fails again re-opens the breaker
// and the degraded cache is served until the next cooldown elapses).
// Without a breaker configured there is no cooldown to pace re-probes
// by, so the cache stands until the caller invalidates it manually.
// Called with m.mu held.
func (m *Mediator) reprobeDue() bool {
	if m.opts.Breaker.Threshold <= 0 {
		return false
	}
	for _, r := range m.lastReports {
		if r.Status == StatusFailed && m.breakerFor(r.Source).readyForProbe() {
			return true
		}
	}
	return false
}

// SourceReports returns each source's most recent fault-tolerance
// report across all guarded fan-outs — Materialize, ExecutePlan and
// PushSelect — merged by source name and sorted (nil when the layer is
// disabled or nothing guarded has run). Because concurrent queries
// merge rather than overwrite, a query that never touched source X
// leaves X's report from the query that did intact; for the reports of
// exactly one plan execution use QueryPlan.Reports. A Status of
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

// Invalidate drops the cached materialization, forcing the next
// Materialize to re-pull every source — e.g. after a degraded run, to
// re-admit a recovered source immediately (or at all, when no breaker
// is configured to pace automatic re-probes).
func (m *Mediator) Invalidate() {
	m.mu.Lock()
	m.dirty = true
	m.mu.Unlock()
}

// Explain returns a derivation tree for a ground fact of the
// materialized mediated object base — the provenance of a view tuple:
// which rules fired over which source facts.
func (m *Mediator) Explain(pred string, args ...term.Term) (*datalog.Derivation, error) {
	m.evalMu.RLock()
	defer m.evalMu.RUnlock()
	res, err := m.Materialize()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	e := m.cacheEngine
	m.mu.Unlock()
	return e.Explain(res, pred, args...)
}

// translateSources renders every source's data concurrently (one task
// per source, at most GOMAXPROCS at a time), returning the per-source
// fact sets and errors positionally so callers can merge them in
// deterministic source order. With a non-nil guard the per-source work
// goes through the fault-tolerance layer (live pull + deadline/retry/
// breaker). A non-nil sp gets one child span per source (created
// serially for deterministic order; each task fills only its own span).
func translateSources(g *guard, srcs []*Source, sp *obs.Span) ([][]datalog.Rule, []error) {
	factSets := make([][]datalog.Rule, len(srcs))
	errs := make([]error, len(srcs))
	spans := make([]*obs.Span, len(srcs))
	if sp != nil {
		for i, s := range srcs {
			spans[i] = sp.Child("source " + s.Name)
		}
	}
	fanOut(len(srcs), runtime.GOMAXPROCS(0), func(i int) {
		factSets[i], errs[i] = guardedSourceFacts(g, srcs[i])
		if spans[i] != nil {
			spans[i].SetInt("facts", int64(len(factSets[i])))
			if errs[i] != nil {
				spans[i].SetStr("error", errs[i].Error())
			}
			spans[i].End()
		}
	})
	return factSets, errs
}

// sourceFacts renders one source's data in the namespaced vocabulary.
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
