package kernel

import "flame/internal/isa"

// PostDomTree holds immediate post-dominators. A virtual exit node (ID =
// len(blocks)) post-dominates everything; blocks whose immediate
// post-dominator is the virtual exit report VirtualExit.
type PostDomTree struct {
	// IPDom[b] is the immediate post-dominator block of b, or VirtualExit.
	IPDom []int
	// VirtualExit is the ID of the synthetic common exit node.
	VirtualExit int
}

// PostDominators computes the post-dominator tree by running CHK on the
// reverse CFG augmented with a virtual exit joined to every real exit
// block.
func PostDominators(g *CFG) *PostDomTree {
	n := len(g.Blocks)
	vexit := n
	// Reverse graph: succs/preds swapped; virtual exit preds = real exits.
	succs := make([][]int, n+1) // reverse-successors = original preds
	preds := make([][]int, n+1) // reverse-preds = original succs
	for _, b := range g.Blocks {
		succs[b.ID] = append(succs[b.ID], b.Preds...)
		preds[b.ID] = append(preds[b.ID], b.Succs...)
	}
	for _, e := range g.ExitBlocks() {
		succs[vexit] = append(succs[vexit], e)
		preds[e] = append(preds[e], vexit)
	}

	// RPO on the reverse graph from the virtual exit.
	seen := make([]bool, n+1)
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range succs[b] {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(vexit)
	rpo := make([]int, len(post))
	for i := range post {
		rpo[len(post)-1-i] = post[i]
	}
	order := make([]int, n+1)
	for i := range order {
		order[i] = -1
	}
	for i, b := range rpo {
		order[b] = i
	}

	ipdom := make([]int, n+1)
	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[vexit] = vexit
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = ipdom[a]
			}
			for order[b] > order[a] {
				b = ipdom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == vexit {
				continue
			}
			newID := -1
			for _, p := range preds[b] {
				if ipdom[p] == -1 || order[p] == -1 {
					continue
				}
				if newID == -1 {
					newID = p
				} else {
					newID = intersect(newID, p)
				}
			}
			if newID != -1 && ipdom[b] != newID {
				ipdom[b] = newID
				changed = true
			}
		}
	}
	return &PostDomTree{IPDom: ipdom[:n], VirtualExit: vexit}
}

// Info bundles the per-program structural analyses the simulator
// needs: CFG, post-dominators and per-branch reconvergence PCs.
type Info struct {
	CFG  *CFG
	PDom *PostDomTree
	// Reconv[i] is the reconvergence instruction index of the (possibly
	// divergent) branch at instruction i: the start of the branch block's
	// immediate post-dominator block. For branches whose immediate
	// post-dominator is the virtual exit it is len(insts) ("reconverge at
	// thread exit"). Non-branch instructions map to -1.
	Reconv []int
}

// Analyze builds all structural analyses for a program.
func Analyze(p *isa.Program) *Info {
	g := Build(p)
	info := &Info{
		CFG:    g,
		PDom:   PostDominators(g),
		Reconv: make([]int, len(p.Insts)),
	}
	for i := range info.Reconv {
		info.Reconv[i] = -1
	}
	for i := range p.Insts {
		if p.Insts[i].Op != isa.OpBra {
			continue
		}
		b := g.BlockOf[i]
		ip := info.PDom.IPDom[b]
		if ip == -1 || ip == info.PDom.VirtualExit {
			info.Reconv[i] = len(p.Insts)
		} else {
			info.Reconv[i] = g.Blocks[ip].Start
		}
	}
	return info
}
