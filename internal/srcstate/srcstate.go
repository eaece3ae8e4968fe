// Package srcstate holds what a mediated object base is a function of:
// every source's state, and the engine and Result built over the
// states. Build seeds a program engine with every state and runs it (or
// adopts a restored store); Move moves one source's state and patches
// the Result (move.go); DropSource and DropResult forget a source, or
// only the Result. The mediator moves a Base on pushes, pulls, streamed
// batches and WAL replays; a cluster router moves one on shard dumps.
package srcstate

import (
	"context"
	"fmt"
	"maps"
	"sort"

	"modelmed/internal/datalog"
)

// State is one source's state: what it contributes to the base.
type State struct {
	// Facts are the ground facts the source contributes: its
	// namespaced src_* facts and the global schema facts its model
	// declares.
	Facts *datalog.Store
	// Anchors are the source's anchor/3 facts.
	Anchors *datalog.Store
	// Rules are the source's semantic rules, the non-ground part of its
	// translation. A move cannot change them; new rules need a Build.
	Rules []datalog.Rule
	// Version is the source's data version (0 = unversioned).
	Version uint64
}

// NewState returns an empty state at version.
func NewState(version uint64) *State {
	return &State{Facts: datalog.NewStore(), Anchors: datalog.NewStore(), Version: version}
}

// Base is every source's State and the engine and Result built over
// them; the zero Base holds nothing. A Base is not safe for concurrent
// use, but a Result is never mutated, so readers may query one while
// the owner moves the Base on (see datalog.Engine.ApplyDelta).
type Base struct {
	states map[string]*State
	eng    *datalog.Engine
	res    *datalog.Result
}

// Result is the materialisation over the held states, or nil.
func (b *Base) Result() *datalog.Result { return b.res }

// Engine is the engine that produced Result, or nil.
func (b *Base) Engine() *datalog.Engine { return b.eng }

// State returns the held state of source name, or nil. Only Move may
// change it.
func (b *Base) State(name string) *State { return b.states[name] }

// Len is the number of held states.
func (b *Base) Len() int { return len(b.states) }

// Names returns the sources of the held states in name order.
func (b *Base) Names() []string {
	names := make([]string, 0, len(b.states))
	for name := range b.states {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// States returns a copy of the held states by source.
func (b *Base) States() map[string]*State {
	out := make(map[string]*State, len(b.states))
	maps.Copy(out, b.states)
	return out
}

// Build makes states the held ones and builds over them. e holds the
// program without any source's rules or facts; every state's rules,
// facts and anchors go into it, in source name order. Then e runs under
// ctx — its Limits and ctx stop an oversized or cancelled build
// mid-stratum — or, with store non-nil, store is adopted as the result
// without a fixpoint run (a durable snapshot's materialisation of this
// very program and EDB). A failed build leaves b as it was.
func (b *Base) Build(ctx context.Context, e *datalog.Engine, states map[string]*State, store *datalog.Store) error {
	next := Base{states: states, eng: e}
	for _, name := range next.Names() {
		st := states[name]
		if err := e.AddRules(st.Rules...); err != nil {
			return fmt.Errorf("source %s: %w", name, err)
		}
		e.SeedEDB(st.Facts)
		e.SeedEDB(st.Anchors)
	}
	if store != nil {
		next.res = e.Restore(store)
	} else {
		var err error
		if next.res, err = e.RunCtx(ctx); err != nil {
			return err
		}
	}
	*b = next
	return nil
}

// DropSource forgets the state of source name and the Result, which
// reflects it; the other states stay.
func (b *Base) DropSource(name string) {
	delete(b.states, name)
	b.DropResult()
}

// DropResult forgets the engine and the Result and keeps the states, so
// the next Build re-evaluates them, e.g. under a changed program.
func (b *Base) DropResult() { b.eng, b.res = nil, nil }
