package analysis

// This file is the dataflow half of the flow-sensitive layer: a small
// iterative worklist solver over the CFG, parameterized by direction and
// by the lattice join (union for may-analyses, intersection for
// must-analyses), plus the two instantiations the sopslint analyzers
// use — a boolean must-reach query and a tainted-variable set.

import (
	"go/ast"
	"go/types"
)

// Direction selects which way facts flow.
type Direction int

const (
	Forward Direction = iota
	Backward
)

// Join selects how facts meet at control-flow merges.
type Join int

const (
	May  Join = iota // union: true on some path
	Must             // intersection: true on every path
)

// A Problem describes one dataflow analysis over fact values of type F.
// Facts must be treated as immutable by Transfer: return a fresh value
// (or the input unchanged) rather than mutating in place.
type Problem[F any] struct {
	Dir Direction
	// Boundary is the fact at the boundary block (Entry for Forward,
	// Exit for Backward).
	Boundary F
	// Merge joins two facts (the Join semantics are the caller's; the
	// solver never merges with an unvisited block's fact).
	Merge func(a, b F) F
	// Equal reports fact equality, for fixpoint detection.
	Equal func(a, b F) bool
	// Transfer pushes a fact through one block.
	Transfer func(b *Block, in F) F
}

// Solve runs the worklist algorithm to fixpoint and returns the fact at
// the IN side of every block (the OUT side for Backward). Blocks not yet
// reached by any path keep no entry in the result map — callers treat a
// missing block as unreachable.
func Solve[F any](c *CFG, p Problem[F]) map[*Block]F {
	in := map[*Block]F{}  // fact entering the block (flow order)
	out := map[*Block]F{} // fact leaving the block
	seen := map[*Block]bool{}

	start := c.Entry
	if p.Dir == Backward {
		start = c.Exit
	}
	next := func(b *Block) []*Block {
		if p.Dir == Backward {
			return b.Preds
		}
		return b.Succs
	}
	prev := func(b *Block) []*Block {
		if p.Dir == Backward {
			return b.Succs
		}
		return b.Preds
	}

	in[start] = p.Boundary
	seen[start] = true
	work := []*Block{start}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]

		// Merge the facts of all visited flow-predecessors; the start
		// block additionally carries the boundary fact.
		var acc F
		have := false
		if b == start {
			acc, have = p.Boundary, true
		}
		for _, q := range prev(b) {
			o, ok := out[q]
			if !ok {
				continue // not yet visited: no contribution
			}
			if !have {
				acc, have = o, true
			} else {
				acc = p.Merge(acc, o)
			}
		}
		if !have {
			continue
		}
		in[b] = acc
		o := p.Transfer(b, acc)
		old, hadOut := out[b]
		if hadOut && p.Equal(old, o) {
			continue
		}
		out[b] = o
		for _, q := range next(b) {
			if !seen[q] {
				seen[q] = true
			}
			work = append(work, q)
		}
	}
	return in
}

// MustReachExit reports whether every path from Entry to Exit passes a
// node satisfying pred, counting a matching defer (defers run on every
// exit) and treating Terminal blocks (panic/os.Exit — the process is
// unwinding) as satisfied. An unreachable Exit (e.g. an infinite loop)
// reports false: nothing is guaranteed about paths that never finish.
func (c *CFG) MustReachExit(pred func(ast.Node) bool) bool {
	for _, d := range c.Defers {
		if pred(d) || pred(d.Call) {
			return true
		}
	}
	type fact struct{ ok, reached bool }
	res := Solve(c, Problem[fact]{
		Dir:      Forward,
		Boundary: fact{ok: false, reached: true},
		Merge: func(a, b fact) fact {
			return fact{ok: a.ok && b.ok, reached: a.reached || b.reached}
		},
		Equal: func(a, b fact) bool { return a == b },
		Transfer: func(b *Block, in fact) fact {
			if in.ok || b.Terminal {
				return fact{ok: true, reached: true}
			}
			for _, n := range b.Nodes {
				if matchNode(n, pred) {
					return fact{ok: true, reached: true}
				}
			}
			return in
		},
	})
	f, ok := res[c.Exit]
	if !ok {
		return false
	}
	// The fact at Exit's IN side is the merge over all paths; but the
	// Exit block itself has no nodes, so IN is the answer.
	return f.ok
}

// matchNode applies pred to n and, for statements, to the direct
// expressions they carry, so a predicate written against calls or
// receives fires whether the node is the bare expression or the
// statement wrapping it.
func matchNode(n ast.Node, pred func(ast.Node) bool) bool {
	if pred(n) {
		return true
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false // other units' bodies are not this path
		}
		if m != nil && pred(m) {
			found = true
		}
		return !found
	})
	return found
}

// TaintVal is the per-variable fact of the taint analyses: a bitmask of
// taint kinds plus the human-readable name of the first clock source
// that contributed (for diagnostics).
type TaintVal struct {
	Kinds uint32
	Src   string
}

// TaintState maps locals to their taint at a program point.
type TaintState map[types.Object]TaintVal

// Merge unions two states (may-analysis: tainted on some path).
func (s TaintState) Merge(o TaintState) TaintState {
	if len(o) == 0 {
		return s
	}
	out := make(TaintState, len(s)+len(o))
	for k, v := range s {
		out[k] = v
	}
	for k, v := range o {
		cur := out[k]
		cur.Kinds |= v.Kinds
		if cur.Src == "" {
			cur.Src = v.Src
		}
		out[k] = cur
	}
	return out
}

// Equal reports whether two states carry the same taint kinds for the
// same objects (sources are diagnostic garnish and do not drive the
// fixpoint).
func (s TaintState) Equal(o TaintState) bool {
	if len(s) != len(o) {
		// Zero-kind entries may pad one side; compare semantically.
		for k, v := range s {
			if o[k].Kinds != v.Kinds {
				return false
			}
		}
		for k, v := range o {
			if s[k].Kinds != v.Kinds {
				return false
			}
		}
		return true
	}
	for k, v := range s {
		if o[k].Kinds != v.Kinds {
			return false
		}
	}
	return true
}

// Set returns a copy of the state with obj's taint replaced (a strong
// update: assignment kills the old fact), or the state itself when that
// changes nothing — states are never mutated, so sharing is safe.
func (s TaintState) Set(obj types.Object, v TaintVal) TaintState {
	if cur, ok := s[obj]; cur == v && ok == (v.Kinds != 0) {
		return s
	}
	out := make(TaintState, len(s)+1)
	for k, w := range s {
		out[k] = w
	}
	if v.Kinds == 0 {
		delete(out, obj)
	} else {
		out[obj] = v
	}
	return out
}

// Add returns a copy with obj's taint widened (a weak update).
func (s TaintState) Add(obj types.Object, v TaintVal) TaintState {
	cur := s[obj]
	cur.Kinds |= v.Kinds
	if cur.Src == "" {
		cur.Src = v.Src
	}
	return s.Set(obj, cur)
}
