// Command medsh is an interactive shell for the model-based mediator:
// it builds the paper's Neuroscience scenario (ANATOM domain map plus
// the SYNAPSE, NCMIR and SENSELAB sources), registers the standard
// views, and evaluates rule-language queries from the command line or
// stdin.
//
// Usage:
//
//	medsh [-synapse N -ncmir N -senselab N] [-seed S]
//	      [-source-timeout D -retries N] [-fault-rate P -fault-seed S -down SRC,...]
//	      [-q QUERY]
//
// -source-timeout and -retries enable the mediator's fault-tolerance
// layer: every wrapper call runs under the deadline, transient
// failures are retried with backoff, and a source that stays down is
// dropped from the answer (graceful degradation; see `.reports`).
// -fault-rate injects seeded transient wrapper faults (chaos demo) and
// -down marks sources as permanently dead; both imply a default retry
// budget when none is given, so the session degrades instead of
// erroring.
//
// Without -q, medsh reads one query per line from stdin. Special
// commands: `.sources`, `.views`, `.concepts`, `.plan` (runs the
// Section 5 query with its plan trace), `.planq QUERY` (plans and runs
// an arbitrary query, printing the plan trace), `.reports` (per-source
// fault-tolerance reports of the last materialization), `.trace on|off`
// (span tracing and counter collection), `.stats` (span tree and
// counter snapshot of the last traced query), `.check`
// (integrity constraints over the federation), `.checkdm` (also
// data-completeness of domain-map edges), `.dot` (domain map as
// GraphViz), `.load FILE` (rule file with views and `?-` queries),
// `.fig3` (registers the Figure 3 knowledge), `.delta SRC +fact(...)
// -fact(...)` (pushes ground source-fact insertions/deletions through
// incremental maintenance, patching the cached materialization),
// `.sync` (re-pulls sources whose data version changed and patches the
// cache), `.invalidate` (drops the cache so the next query rebuilds
// from scratch), `.serve ADDR` (serves the HTTP query API of
// internal/serve over the session's mediator in the background),
// `.help` (the full command list — unknown dot-commands print it and
// error instead of evaluating as query text), `.quit`.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/dl"
	"modelmed/internal/mediator"
	"modelmed/internal/parser"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// helpText is the `.help` listing; unknown dot-commands print it too,
// so a typo never silently evaluates as a query.
const helpText = `commands:
  .help                        this list
  .sources                     registered sources
  .views                       registered views
  .concepts                    domain-map concepts
  .plan                        run the Section 5 query with its plan trace
  .planq QUERY                 plan and run QUERY, printing the plan trace
  .reports                     per-source fault-tolerance reports of the last materialization
  .trace on|off                span tracing and counter collection
  .stats                       span tree and counters of the last traced query
  .check | .checkdm            integrity constraints (.checkdm adds domain-map completeness)
  .why FACT                    derivation of a ground fact
  .register AXIOMS             register DL axioms at the mediator
  .taxonomy                    classified concept taxonomy
  .dist PROTEIN ORG ROOT [dot] protein distribution under a root concept
  .dot                         domain map as GraphViz
  .load FILE                   rule file with views and ?- queries
  .fig3                        register the Figure 3 knowledge
  .delta SRC +f(..) -f(..)     push a source delta through incremental maintenance
  .sync                        re-pull sources whose data version changed
  .invalidate                  drop the cached materialization
  .serve ADDR                  serve the HTTP query API on ADDR (e.g. 127.0.0.1:8344)
  .quit                        exit
anything not starting with '.' is evaluated as a rule-language query`

func main() {
	nSyn := flag.Int("synapse", 50, "SYNAPSE measurement records")
	nNcm := flag.Int("ncmir", 100, "NCMIR protein amount records")
	nSl := flag.Int("senselab", 30, "SENSELAB neurotransmission records")
	seed := flag.Int64("seed", 11, "generator seed")
	srcTimeout := flag.Duration("source-timeout", 0, "per-source call deadline (0 = none; enables the fault-tolerance layer)")
	retries := flag.Int("retries", 0, "retries per transiently failing source call (enables the fault-tolerance layer)")
	faultRate := flag.Float64("fault-rate", 0, "inject seeded transient wrapper faults with this probability (chaos demo)")
	faultSeed := flag.Int64("fault-seed", 1, "fault schedule seed")
	down := flag.String("down", "", "comma-separated sources simulated as permanently down")
	query := flag.String("q", "", "single query to evaluate (then exit)")
	flag.Parse()

	med, err := buildFaultScenario(scenarioConfig{
		seed: *seed, nSyn: *nSyn, nNcm: *nNcm, nSl: *nSl,
		sourceTimeout: *srcTimeout, retries: *retries,
		faultRate: *faultRate, faultSeed: *faultSeed, down: parseDown(*down),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "medsh:", err)
		os.Exit(1)
	}

	if *query != "" {
		if err := runLine(med, *query); err != nil {
			fmt.Fprintln(os.Stderr, "medsh:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("model-based mediator: %d sources registered over %s (%d concepts)\n",
		len(med.Sources()), med.DomainMap().Name(), len(med.DomainMap().Concepts()))
	fmt.Println(`enter rule-language queries, or .help for the command list (.plan .planq Q .delta .sync .invalidate .serve ADDR .trace on|off .quit ...)`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("medsh> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == ".quit" || line == ".exit" {
			return
		}
		if err := runLine(med, line); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}

// scenarioConfig collects the scenario and fault-tolerance knobs.
type scenarioConfig struct {
	seed            int64
	nSyn, nNcm, nSl int

	sourceTimeout time.Duration
	retries       int
	faultRate     float64
	faultSeed     int64
	down          map[string]bool
}

// parseDown splits the -down list into a source set.
func parseDown(s string) map[string]bool {
	out := map[string]bool{}
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out[name] = true
		}
	}
	return out
}

// injectsFaults reports whether the config decorates any wrapper.
func (c scenarioConfig) injectsFaults() bool {
	return c.faultRate > 0 || len(c.down) > 0
}

func buildScenario(seed int64, nSyn, nNcm, nSl int) (*mediator.Mediator, error) {
	return buildFaultScenario(scenarioConfig{
		seed: seed, nSyn: nSyn, nNcm: nNcm, nSl: nSl,
	})
}

func buildFaultScenario(cfg scenarioConfig) (*mediator.Mediator, error) {
	opts := mediator.Options{
		SourceTimeout: cfg.sourceTimeout,
		MaxRetries:    cfg.retries,
	}
	if cfg.injectsFaults() && opts.MaxRetries == 0 && opts.SourceTimeout == 0 {
		// Injecting faults with the guard off would fail queries on the
		// first blip; default to a small retry budget so the session
		// retries and degrades instead.
		opts.MaxRetries = 3
	}
	med := mediator.New(sources.NeuroDM(), &opts)
	ws, err := sources.Wrappers(cfg.seed, cfg.nSyn, cfg.nNcm, cfg.nSl)
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		var reg wrapper.Wrapper = w
		if cfg.injectsFaults() {
			reg = wrapper.NewFaulty(w, wrapper.FaultConfig{
				Seed:           cfg.faultSeed,
				ErrorProb:      cfg.faultRate,
				MaxConsecutive: 2,
				Down:           cfg.down[w.Name()],
			})
		}
		if err := med.Register(reg); err != nil {
			return nil, err
		}
	}
	if err := med.DefineStandardViews(); err != nil {
		return nil, err
	}
	return med, nil
}

// loadRuleFile registers the rules of a file as a view and runs its
// `?-` queries.
func loadRuleFile(med *mediator.Mediator, src string) error {
	pp, err := parser.Parse(src)
	if err != nil {
		return err
	}
	if len(pp.Program.Rules) > 0 {
		text := pp.Program.String()
		if err := med.DefineView(text); err != nil {
			return err
		}
		fmt.Printf("loaded %d rules\n", len(pp.Program.Rules))
	}
	for _, q := range pp.Queries {
		parts := make([]string, len(q))
		for i, e := range q {
			parts[i] = e.String()
		}
		qs := strings.Join(parts, ", ")
		fmt.Println("?-", qs)
		ans, err := med.Query(qs)
		if err != nil {
			return err
		}
		fmt.Print(mediator.FormatAnswer(ans))
		fmt.Printf("(%d rows)\n", len(ans.Rows))
	}
	return nil
}

// runDelta handles `.delta SRC +fact(...) -fact(...)`: the first field
// names a registered source, every following signed term is a ground
// source fact (src_obj/src_val/src_sub/src_tuple/anchor) pushed as an
// insertion (+) or deletion (-) through incremental maintenance.
func runDelta(med *mediator.Mediator, rest string) error {
	rest = strings.TrimSpace(rest)
	i := strings.IndexAny(rest, " \t")
	if i < 0 {
		return fmt.Errorf("usage: .delta SRC +fact(...) -fact(...)")
	}
	src := rest[:i]
	var adds, dels []datalog.Rule
	for _, tok := range splitSigned(rest[i:]) {
		sign, body := tok[0], strings.TrimSpace(tok[1:])
		t, err := parser.ParseTerm(body)
		if err != nil {
			return fmt.Errorf("delta fact %q: %w", body, err)
		}
		if t.Kind() != term.KindCompound {
			return fmt.Errorf("delta fact %q: want pred(arg1, ...)", body)
		}
		f := datalog.Fact(t.Name(), t.Args()...)
		if sign == '+' {
			adds = append(adds, f)
		} else {
			dels = append(dels, f)
		}
	}
	if len(adds)+len(dels) == 0 {
		return fmt.Errorf("usage: .delta SRC +fact(...) -fact(...)")
	}
	rep, err := med.ApplySourceDelta(src, adds, dels)
	if err != nil {
		return err
	}
	fmt.Println(" ", rep)
	return nil
}

// splitSigned splits "+f(a, b) -g(c)" into signed fact chunks. Only a
// '+' or '-' at paren depth zero starts a new chunk, so commas and
// signs inside argument lists don't split a fact.
func splitSigned(s string) []string {
	var out []string
	depth, start := 0, -1
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case '+', '-':
			if depth == 0 {
				if start >= 0 {
					out = append(out, strings.TrimSpace(s[start:i]))
				}
				start = i
			}
		}
	}
	if start >= 0 {
		out = append(out, strings.TrimSpace(s[start:]))
	}
	return out
}

// runServe mounts the HTTP query service (internal/serve) over the
// session's mediator on addr and serves it in the background until the
// shell exits — queries keep working at the prompt while remote
// clients hit the same mediator.
func runServe(med *mediator.Mediator, addr string) error {
	if addr == "" {
		return fmt.Errorf("usage: .serve ADDR (e.g. .serve 127.0.0.1:8344)")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := serve.New(med, serve.Config{})
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	fmt.Printf("serving HTTP query API on http://%s (POST /v1/query, GET /healthz, /metrics)\n", ln.Addr())
	return nil
}

func runLine(med *mediator.Mediator, line string) error {
	switch {
	case line == ".sources":
		for _, s := range med.Sources() {
			src, _ := med.Source(s)
			objs := 0
			if src.Model != nil {
				objs = len(src.Model.Objects)
			}
			fmt.Printf("  %-10s %d objects, %d capabilities\n", s, objs, len(src.Caps))
		}
		return nil
	case line == ".views":
		for _, v := range med.Views() {
			fmt.Println(strings.TrimSpace(v))
			fmt.Println()
		}
		return nil
	case line == ".concepts":
		for _, c := range med.DomainMap().Concepts() {
			fmt.Println(" ", c)
		}
		return nil
	case line == ".fig3":
		if err := med.RegisterKnowledge(sources.Fig3Registration()...); err != nil {
			return err
		}
		fmt.Println("registered my_neuron / my_dendrite (Figure 3)")
		return nil
	case line == ".plan":
		res, err := med.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
		if err != nil {
			return err
		}
		for _, step := range res.Trace {
			fmt.Println(" ", step)
		}
		for _, p := range res.Proteins {
			fmt.Printf("\n%s distribution under %s:\n%s", p, res.Root, res.Distributions[p])
		}
		return nil
	case strings.HasPrefix(line, ".planq "):
		ans, plan, err := med.PlannedQuery(strings.TrimPrefix(line, ".planq "))
		if err != nil {
			return err
		}
		for _, step := range plan.Trace {
			fmt.Println(" ", step)
		}
		fmt.Print(mediator.FormatAnswer(ans))
		fmt.Printf("(%d rows)\n", len(ans.Rows))
		return nil
	case line == ".trace on" || line == ".trace off":
		med.EnableTracing(line == ".trace on")
		if med.TracingEnabled() {
			fmt.Println("tracing on: queries record spans and counters; see .stats")
		} else {
			fmt.Println("tracing off")
		}
		return nil
	case line == ".trace":
		if med.TracingEnabled() {
			fmt.Println("tracing is on (.trace off to disable)")
		} else {
			fmt.Println("tracing is off (.trace on to enable)")
		}
		return nil
	case line == ".stats":
		sp := med.LastTrace()
		if sp == nil {
			fmt.Println("no trace recorded (enable with .trace on, then run a query)")
			return nil
		}
		fmt.Print(sp.Render())
		if c := med.ObsCounters(); c != nil {
			fmt.Println("counters:")
			fmt.Print(c.Render())
		}
		return nil
	case line == ".reports":
		reps := med.SourceReports()
		if len(reps) == 0 {
			fmt.Println("no fault-tolerance reports (layer disabled, or nothing materialized yet)")
			return nil
		}
		for _, r := range reps {
			fmt.Println(" ", r)
		}
		return nil
	case line == ".check" || line == ".checkdm":
		rep, err := med.CheckConsistency(line == ".checkdm")
		if err != nil {
			return err
		}
		fmt.Println(rep)
		for _, w := range rep.Witnesses {
			fmt.Println("  ", w)
		}
		return nil
	case strings.HasPrefix(line, ".why "):
		goal := strings.TrimSpace(strings.TrimPrefix(line, ".why "))
		t, err := parser.ParseTerm(goal)
		if err != nil {
			return err
		}
		if t.Kind() != term.KindCompound {
			return fmt.Errorf("usage: .why pred(arg1, ...)")
		}
		d, err := med.Explain(t.Name(), t.Args()...)
		if err != nil {
			return err
		}
		fmt.Print(d)
		return nil
	case strings.HasPrefix(line, ".register "):
		axioms, err := dl.ParseAxioms(strings.TrimPrefix(line, ".register "))
		if err != nil {
			return err
		}
		if err := med.RegisterKnowledge(axioms...); err != nil {
			return err
		}
		for _, a := range axioms {
			fmt.Println("registered:", a)
		}
		return nil
	case line == ".taxonomy":
		tax, err := med.DomainMap().TBox().Classify()
		if err != nil {
			return err
		}
		fmt.Print(tax)
		return nil
	case strings.HasPrefix(line, ".dist "):
		// .dist PROTEIN ORGANISM ROOT [dot]
		args := strings.Fields(strings.TrimPrefix(line, ".dist "))
		if len(args) < 3 {
			return fmt.Errorf("usage: .dist PROTEIN ORGANISM ROOT [dot]")
		}
		d, err := med.DistributionOf(args[0], args[1], args[2])
		if err != nil {
			return err
		}
		if len(args) > 3 && args[3] == "dot" {
			fmt.Print(d.DOT())
		} else {
			fmt.Print(d)
		}
		return nil
	case strings.HasPrefix(line, ".delta "):
		return runDelta(med, strings.TrimPrefix(line, ".delta "))
	case line == ".sync":
		reps, err := med.SyncSources()
		if err != nil {
			return err
		}
		if len(reps) == 0 {
			fmt.Println("all sources up to date")
			return nil
		}
		for _, r := range reps {
			fmt.Println(" ", r)
		}
		return nil
	case line == ".invalidate":
		med.Invalidate()
		fmt.Println("cache invalidated: the next query re-materializes from scratch")
		return nil
	case line == ".dot":
		fmt.Print(med.DomainMap().DOT())
		return nil
	case strings.HasPrefix(line, ".load "):
		data, err := os.ReadFile(strings.TrimSpace(strings.TrimPrefix(line, ".load ")))
		if err != nil {
			return err
		}
		return loadRuleFile(med, string(data))
	case line == ".help":
		fmt.Println(helpText)
		return nil
	case strings.HasPrefix(line, ".serve "):
		return runServe(med, strings.TrimSpace(strings.TrimPrefix(line, ".serve ")))
	}
	if strings.HasPrefix(line, ".") {
		// A dot-line is always meant as a command; evaluating a typo as a
		// query would only yield a confusing parse error.
		fmt.Println(helpText)
		return fmt.Errorf("unknown command %s", strings.Fields(line)[0])
	}
	ans, err := med.Query(line)
	if err != nil {
		return err
	}
	fmt.Print(mediator.FormatAnswer(ans))
	fmt.Printf("(%d rows)\n", len(ans.Rows))
	return nil
}
