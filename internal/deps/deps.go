// Package deps builds the data-dependency multigraph G of a basic block
// (Section 5.1 of the COMET paper): vertices are the block's instructions
// annotated with their positions, and directed edges connect instruction
// pairs with RAW, WAR, or WAW hazards, labeled by hazard type and the
// location (register family, memory address expression, stack slot, or
// flags) that carries the hazard.
//
// Following the paper's multigraph (e.g. the Listing 3 case study reports a
// RAW between instructions 3 and 6 despite an intervening writer), edges
// are built for every (earlier, later) instruction pair that touches a
// common location, not only adjacent def-use pairs. Options.LastWriterOnly
// restores conventional kill-based analysis for callers that want it.
package deps

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"

	"github.com/comet-explain/comet/internal/x86"
)

// Hazard is the type of a data-dependency hazard (Appendix B).
type Hazard int

// Hazard kinds.
const (
	RAW Hazard = iota // read-after-write: true dependency
	WAR               // write-after-read: anti dependency
	WAW               // write-after-write: output dependency
)

// String returns the conventional hazard name.
func (h Hazard) String() string {
	if h < RAW || h > WAW {
		return "hazard(?)"
	}
	return [...]string{"RAW", "WAR", "WAW"}[h]
}

// LocKind classifies a dependency-carrying location.
type LocKind int

// Location kinds.
const (
	LocReg LocKind = iota
	LocMem
	LocStack
	LocFlags
)

// Loc is a location in its block's dense namespace: register families
// keep their x86.RegFamily index, each distinct memory expression gets a
// slot from MemBase up in MemRef.LocKey text order, and the push/pop
// stack slot and the flags take the two IDs after. Integer order is thus
// location order; names exist only at the edges (Table.LocName).
type Loc int32

// MemBase is the ID of a block's first memory slot.
const MemBase = Loc(x86.NumFamilies)

// Edge is one dependency edge of the multigraph.
type Edge struct {
	Src, Dst int // instruction indices, Src < Dst
	Hazard   Hazard
	Loc      Loc
}

// Graph is the dependency multigraph of a basic block, together with the
// block's access table, which names the edges' locations.
type Graph struct {
	Block *x86.BasicBlock
	Edges []Edge
	Table
}

// EdgeString renders an edge like "δRAW(1→3) via rax" with 1-based
// indices to match the paper's listings.
func (g *Graph) EdgeString(e Edge) string {
	return fmt.Sprintf("δ%s(%d→%d) via %s", e.Hazard, e.Src+1, e.Dst+1, g.LocName(e.Loc))
}

// Options controls graph construction.
type Options struct {
	// TrackFlags includes RFLAGS as a dependency location. Off by default:
	// nearly every integer ALU instruction writes flags, so flag edges
	// drown the register/memory structure the paper's explanations use.
	TrackFlags bool
	// LastWriterOnly restricts RAW edges to the most recent writer and
	// WAW/WAR edges to adjacent access pairs (kill-based analysis) instead
	// of the paper's all-pairs multigraph.
	LastWriterOnly bool
}

// Access bits: bit f < MemBase is register family f; the three top bits
// are the instruction's memory operand (x86 has at most one), the stack
// slot and the flags. Ascending bit order is location order.
const (
	memBit   = 61
	stackBit = 62
	flagsBit = 63
)

// access is one instruction's reads and writes.
type access struct {
	reads, writes uint64 // access bits
	mem           Loc    // slot of the memory operand, when memBit is set
}

// Table is a block's access table: every instruction's reads and writes
// in the block's location namespace.
type Table struct {
	acc  []access
	mems []x86.MemRef // canonical expression of each memory slot, in slot order
}

// canonical keeps what LocKey renders of a memory expression, so equal
// canonical forms are exactly equal LocKey texts.
func canonical(m x86.MemRef) x86.MemRef {
	c := x86.MemRef{Base: x86.Reg{Family: m.Base.Family}, Index: x86.Reg{Family: m.Index.Family}, Disp: m.Disp}
	if !m.Index.IsZero() {
		c.Scale = m.Scale
	}
	return c
}

// NumLocs returns the size of the block's location namespace.
func (t *Table) NumLocs() int { return int(t.stack()) + 2 }

func (t *Table) stack() Loc { return MemBase + Loc(len(t.mems)) }

// LocKind classifies a location of the block.
func (t *Table) LocKind(l Loc) LocKind {
	switch s := t.stack(); {
	case l < MemBase:
		return LocReg
	case l < s:
		return LocMem
	case l == s:
		return LocStack
	}
	return LocFlags
}

// LocName returns a location's printable name: the register family's
// 64-bit name, the canonical memory expression, "stack" or "flags".
func (t *Table) LocName(l Loc) string {
	switch t.LocKind(l) {
	case LocReg:
		return x86.FamilyName(x86.RegFamily(l))
	case LocMem:
		return t.mems[l-MemBase].LocKey()
	case LocStack:
		return "stack"
	}
	return "flags"
}

// AppendReads appends instruction i's read locations, in order, to dst.
func (t *Table) AppendReads(dst []Loc, i int) []Loc {
	return t.appendLocs(dst, t.acc[i].reads, t.acc[i].mem)
}

// AppendWrites appends instruction i's written locations to dst.
func (t *Table) AppendWrites(dst []Loc, i int) []Loc {
	return t.appendLocs(dst, t.acc[i].writes, t.acc[i].mem)
}

func (t *Table) appendLocs(dst []Loc, set uint64, mem Loc) []Loc {
	for ; set != 0; set &= set - 1 {
		dst = append(dst, t.loc(bits.TrailingZeros64(set), mem))
	}
	return dst
}

// loc maps an access bit of an instruction whose memory slot is mem to
// its location.
func (t *Table) loc(bit int, mem Loc) Loc {
	switch bit {
	case memBit:
		return mem
	case stackBit, flagsBit:
		return t.stack() + Loc(bit-stackBit)
	}
	return Loc(bit)
}

// NewTable computes the access table of a block: per instruction, the
// explicit operands (with per-form access), address-component register
// reads, implicit register accesses, stack effects and flags.
func NewTable(b *x86.BasicBlock, opts Options) (Table, error) {
	t := Table{acc: make([]access, b.Len())}
	for i, inst := range b.Instructions {
		if err := t.fillInst(&t.acc[i], inst, opts); err != nil {
			return Table{}, fmt.Errorf("instruction %d: %w", i+1, err)
		}
	}
	t.sortMems()
	return t, nil
}

func (t *Table) fillInst(a *access, inst x86.Instruction, opts Options) error {
	spec, ok := inst.Spec()
	if !ok {
		return fmt.Errorf("deps: unknown opcode %q", inst.Opcode)
	}
	form := spec.MatchForm(inst.Operands)
	if form == nil {
		return fmt.Errorf("deps: %s does not match any form", inst)
	}
	for i, op := range inst.Operands {
		acc := form.Ops[i].Access
		var set uint64
		switch op.Kind {
		case x86.KindReg:
			set = famBit(op.Reg.Family)
		case x86.KindMem, x86.KindAddr:
			if !op.Mem.Base.IsZero() {
				a.reads |= famBit(op.Mem.Base.Family)
			}
			if !op.Mem.Index.IsZero() {
				a.reads |= famBit(op.Mem.Index.Family)
			}
			if op.Kind == x86.KindMem {
				a.mem = t.slot(op.Mem)
				set = 1 << memBit
			}
		}
		if acc&x86.AccR != 0 {
			a.reads |= set
		}
		if acc&x86.AccW != 0 {
			a.writes |= set
		}
	}
	for _, f := range spec.ImplicitReads {
		a.reads |= famBit(f)
	}
	for _, f := range spec.ImplicitWrites {
		a.writes |= famBit(f)
	}
	if spec.StackRead {
		a.reads |= 1 << stackBit
	}
	if spec.StackWrite {
		a.writes |= 1 << stackBit
	}
	if opts.TrackFlags && spec.ReadsFlags {
		a.reads |= 1 << flagsBit
	}
	if opts.TrackFlags && spec.WritesFlags {
		a.writes |= 1 << flagsBit
	}
	return nil
}

// famBit returns a register family's access bit; families outside the
// namespace (never parsed or decoded) carry no dependencies.
func famBit(f x86.RegFamily) uint64 { return 1 << uint(f) & (1<<x86.NumFamilies - 1) }

// slot returns the provisional (first-appearance) slot of a memory
// expression; sortMems renumbers slots into canonical order.
func (t *Table) slot(m x86.MemRef) Loc {
	k := canonical(m)
	for i, have := range t.mems {
		if have == k {
			return MemBase + Loc(i)
		}
	}
	if t.mems == nil {
		t.mems = make([]x86.MemRef, 0, len(t.acc)) // one operand per instruction at most
	}
	t.mems = append(t.mems, k)
	return MemBase + Loc(len(t.mems)-1)
}

// sortMems renumbers the memory slots in LocKey text order.
func (t *Table) sortMems() {
	if len(t.mems) < 2 {
		return
	}
	prev := append(make([]x86.MemRef, 0, 8), t.mems...)
	slices.SortFunc(t.mems, func(x, y x86.MemRef) int {
		var xb, yb [64]byte
		return bytes.Compare(x.AppendLocKey(xb[:0]), y.AppendLocKey(yb[:0]))
	})
	for i := range t.acc {
		if a := &t.acc[i]; (a.reads|a.writes)&(1<<memBit) != 0 {
			a.mem = MemBase + Loc(slices.Index(t.mems, prev[a.mem-MemBase]))
		}
	}
}

// Build constructs the dependency multigraph of a block, its edges
// ordered by (Src, Dst, Hazard, Loc).
func Build(b *x86.BasicBlock, opts Options) (*Graph, error) {
	t, err := NewTable(b, opts)
	if err != nil {
		return nil, err
	}
	g := &Graph{Block: b, Table: t}
	g.Edges = make([]Edge, 0, g.link(opts.LastWriterOnly, false))
	g.link(opts.LastWriterOnly, true)
	return g, nil
}

// link counts (and with emit appends) the edges of every pair i < j, in
// edge order. Under kill-based analysis a location written strictly
// between i and j carries no edge from i to j.
func (g *Graph) link(lastWriterOnly, emit bool) int {
	acc := g.acc
	count := 0
	for i, a := range acc {
		var killed uint64 // locations of a written since a
		for j := i + 1; j < len(acc); j++ {
			b := acc[j]
			live := ^killed // the memory bits only meet on the same slot
			if a.mem != b.mem {
				live &^= 1 << memBit
			}
			hazards := [3]uint64{RAW: a.writes & b.reads & live, WAR: a.reads & b.writes & live, WAW: a.writes & b.writes & live}
			for h, set := range hazards {
				count += bits.OnesCount64(set)
				for ; emit && set != 0; set &= set - 1 {
					loc := g.loc(bits.TrailingZeros64(set), a.mem)
					g.Edges = append(g.Edges, Edge{Src: i, Dst: j, Hazard: Hazard(h), Loc: loc})
				}
			}
			if lastWriterOnly {
				killed |= (a.reads | a.writes) & b.writes & live
			}
		}
	}
	return count
}

// HasEdge reports whether the graph contains an edge with the given
// endpoints and hazard type, regardless of location.
func (g *Graph) HasEdge(src, dst int, h Hazard) bool {
	for _, e := range g.Edges {
		if e.Src == src && e.Dst == dst && e.Hazard == h {
			return true
		}
	}
	return false
}
