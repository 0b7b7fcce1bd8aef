// Package kernel provides program-level structure over an assembled ISA
// program: basic blocks, the control-flow graph, the post-dominator
// tree and SIMT reconvergence points (immediate post-dominators). The
// compiler passes and the simulator's SIMT divergence stack are built on
// these.
package kernel

import (
	"fmt"
	"sort"
	"strings"

	"flame/internal/isa"
)

// Block is a basic block: a maximal straight-line instruction range
// [Start, End) with control entering only at Start and leaving only at
// End-1.
type Block struct {
	ID    int
	Start int // first instruction index
	End   int // one past the last instruction index
	Succs []int
	Preds []int
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return b.End - b.Start }

// CFG is the control-flow graph of a program.
type CFG struct {
	Prog   *isa.Program
	Blocks []*Block
	// BlockOf maps each instruction index to its containing block ID.
	BlockOf []int
}

// Build constructs the CFG of a program. Block leaders are: instruction 0,
// every branch target, and every instruction following a branch or an
// unpredicated exit. A predicated branch has two successors (target first,
// fall-through second); an unpredicated branch one; an unpredicated exit
// none. A predicated exit falls through (it only deactivates lanes).
func Build(p *isa.Program) *CFG {
	n := len(p.Insts)
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		switch {
		case in.Op == isa.OpBra:
			leader[in.Target] = true
			if i+1 < n {
				leader[i+1] = true
			}
		case in.Op == isa.OpExit && !in.Guard.Valid():
			if i+1 < n {
				leader[i+1] = true
			}
		}
	}

	g := &CFG{Prog: p, BlockOf: make([]int, n)}
	for i := 0; i < n; {
		j := i + 1
		for j < n && !leader[j] {
			j++
		}
		b := &Block{ID: len(g.Blocks), Start: i, End: j}
		g.Blocks = append(g.Blocks, b)
		for k := i; k < j; k++ {
			g.BlockOf[k] = b.ID
		}
		i = j
	}

	// Edges.
	for _, b := range g.Blocks {
		last := &p.Insts[b.End-1]
		switch {
		case last.Op == isa.OpBra:
			g.addEdge(b.ID, g.BlockOf[last.Target])
			if last.Guard.Valid() && b.End < n {
				g.addEdge(b.ID, g.BlockOf[b.End])
			}
		case last.Op == isa.OpExit && !last.Guard.Valid():
			// no successors
		default:
			if b.End < n {
				g.addEdge(b.ID, g.BlockOf[b.End])
			}
		}
	}
	return g
}

func (g *CFG) addEdge(from, to int) {
	g.Blocks[from].Succs = append(g.Blocks[from].Succs, to)
	g.Blocks[to].Preds = append(g.Blocks[to].Preds, from)
}

// Entry returns the entry block ID (always 0).
func (g *CFG) Entry() int { return 0 }

// ExitBlocks returns the IDs of blocks with no successors.
func (g *CFG) ExitBlocks() []int {
	var out []int
	for _, b := range g.Blocks {
		if len(b.Succs) == 0 {
			out = append(out, b.ID)
		}
	}
	return out
}

// RPO returns the block IDs of reachable blocks in reverse post-order from
// the entry.
func (g *CFG) RPO() []int {
	seen := make([]bool, len(g.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Reachable returns which blocks are reachable from the entry.
func (g *CFG) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	stack := []int{g.Entry()}
	seen[g.Entry()] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// String renders the CFG structure for debugging.
func (g *CFG) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		succs := append([]int(nil), b.Succs...)
		sort.Ints(succs)
		fmt.Fprintf(&sb, "B%d [%d,%d) -> %v\n", b.ID, b.Start, b.End, succs)
	}
	return sb.String()
}
