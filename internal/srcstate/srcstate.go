// Package srcstate holds what a mediated object base is a function of:
// every source's state, and the engine and Result built over the
// states. A Base is a value that is never written: Build seeds a
// program engine with every state and runs it (or adopts a restored
// store); Move returns the Base with one source's state moved and the
// Result patched (move.go); DropSource and DropResult return it without
// a source, or without the Result. The mediator moves a Base on pushes,
// pulls, streamed batches and WAL replays; a cluster router moves one
// on shard dumps.
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
// them; the zero Base holds nothing. Nothing writes a Base, its states
// or its Result once it exists, so any number of readers may share one
// while the owner moves on to the next (see datalog.Engine.ApplyDelta).
type Base struct {
	states map[string]*State
	eng    *datalog.Engine
	res    *datalog.Result
}

// Result is the materialisation over the held states, or nil.
func (b Base) Result() *datalog.Result { return b.res }

// Engine is the engine that produced Result, or nil.
func (b Base) Engine() *datalog.Engine { return b.eng }

// State returns the held state of source name, or nil. It is not
// written; Move returns a Base with a new state instead.
func (b Base) State(name string) *State { return b.states[name] }

// Len is the number of held states.
func (b Base) Len() int { return len(b.states) }

// Names returns the sources of the held states in name order.
func (b Base) Names() []string {
	names := make([]string, 0, len(b.states))
	for name := range b.states {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// States returns a copy of the held states by source.
func (b Base) States() map[string]*State {
	out := make(map[string]*State, len(b.states))
	maps.Copy(out, b.states)
	return out
}

// Build returns the Base of states built over. e holds the program
// without any source's rules or facts; every state's rules, facts and
// anchors go into it, in source name order. Then e runs under ctx — its
// Limits and ctx stop an oversized or cancelled build mid-stratum — or,
// with store non-nil, store is adopted as the result without a fixpoint
// run (a durable snapshot's materialisation of this very program and
// EDB). states and store are the Base's from then on: nothing writes
// them again.
func Build(ctx context.Context, e *datalog.Engine, states map[string]*State, store *datalog.Store) (Base, error) {
	b := Base{states: states, eng: e}
	for _, name := range b.Names() {
		st := states[name]
		if err := e.AddRules(st.Rules...); err != nil {
			return Base{}, fmt.Errorf("source %s: %w", name, err)
		}
		e.SeedEDB(st.Facts)
		e.SeedEDB(st.Anchors)
	}
	if store != nil {
		b.res = e.Restore(store)
		return b, nil
	}
	var err error
	if b.res, err = e.RunCtx(ctx); err != nil {
		return Base{}, err
	}
	return b, nil
}

// DropSource returns b without the state of source name and without
// the Result, which reflects it; the other states stay.
func (b Base) DropSource(name string) Base {
	states := maps.Clone(b.states)
	delete(states, name)
	return Base{states: states}
}

// DropResult returns b's states without the engine and the Result, so
// the next Build re-evaluates them, e.g. under a changed program.
func (b Base) DropResult() Base { return Base{states: b.states} }
