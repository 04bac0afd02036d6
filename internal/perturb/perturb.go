// Package perturb implements Γ, COMET's stochastic basic-block perturbation
// algorithm (Section 5.2 and Algorithm 1 of the paper). Given a block β and
// a set of features F ⊆ ˆP to preserve, Sample draws a perturbed block
// β′ ∼ D_F in which:
//
//   - every vertex (instruction) outside F is independently retained with
//     probability pI,ret, and otherwise deleted (with probability p_del,
//     when the instruction count η is not preserved) or has its opcode
//     replaced by a uniformly random ISA-valid alternative;
//   - every dependency edge outside F is independently retained with
//     probability pD,ret (plus a small explicit-retention probability that
//     locks the dependency for the draw), and otherwise broken by renaming
//     the operands that carry it to registers of the same type and size;
//   - everything in F — instruction opcodes, the operands carrying
//     preserved dependencies, and η when requested — is left intact.
//
// As Appendix D describes, the effective perturbation probabilities are
// block-specific: opcodes with no valid replacement (lea) silently retain,
// and dependencies carried only by implicit operands (div's rax/rdx)
// cannot be broken by operand renaming.
package perturb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/x86"
)

// Scheme selects how instruction (vertex) replacement perturbs operands.
type Scheme int

const (
	// OpcodeOnly replaces just the opcode, the paper's default (§E.4 finds
	// it the more accurate scheme).
	OpcodeOnly Scheme = iota
	// WholeInstruction additionally renames the replaced instruction's
	// register operands (same type and size), the §E.4 ablation.
	WholeInstruction
)

// Config holds Γ's hyperparameters; zero value is not usable, start from
// DefaultConfig.
type Config struct {
	PInstRetain        float64 // pI,ret: retain a non-preserved instruction
	PDepRetain         float64 // pD,ret: retain a non-preserved dependency
	PDelete            float64 // p_del: delete (vs replace) a perturbed instruction
	PExplicitDepRetain float64 // lock a non-preserved dependency for the draw
	Scheme             Scheme
	DepOptions         deps.Options
}

// DefaultConfig returns the paper's experimental settings (§6, App. E):
// retention probabilities 0.5, p_del = 0.33, explicit dependency retention
// 0.1, opcode-only replacement.
func DefaultConfig() Config {
	return Config{
		PInstRetain:        0.5,
		PDepRetain:         0.5,
		PDelete:            0.33,
		PExplicitDepRetain: 0.1,
		Scheme:             OpcodeOnly,
	}
}

// Result is one perturbed block together with the survivor index mapping.
type Result struct {
	Block *x86.BasicBlock
	// Mapping[i] is the position of original instruction i in Block, or −1
	// if it was deleted.
	Mapping []int
}

// Graph builds the dependency graph of the perturbed block (convenience
// for feature-containment checks).
func (r Result) Graph(opts deps.Options) (*deps.Graph, error) {
	return deps.Build(r.Block, opts)
}

// Perturber samples perturbations of one fixed basic block.
type Perturber struct {
	cfg   Config
	block *x86.BasicBlock
	graph *deps.Graph
	feats features.Set
	// used holds, by family bit, the register families the original
	// (immutable) block touches: freshFamily consults it on every rename.
	used uint64
	// carriers[k] holds the operand slots carrying edge k on its source
	// and on its destination instruction. They depend only on the original
	// block, so New computes them once for every draw.
	carriers [][2][]slot
	maxOps   int // most operands of any instruction, for slot indices
	numOps   int // operands in the whole block
}

// New prepares a perturber for the block.
func New(b *x86.BasicBlock, cfg Config) (*Perturber, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	g, err := deps.Build(b, cfg.DepOptions)
	if err != nil {
		return nil, err
	}
	p := &Perturber{cfg: cfg, block: b, graph: g, feats: features.Extract(g), maxOps: 1}
	for _, inst := range b.Instructions {
		p.numOps += len(inst.Operands)
		p.maxOps = max(p.maxOps, len(inst.Operands))
	}
	p.used = p.computeUsedFamilies()
	p.carriers = make([][2][]slot, len(g.Edges))
	for k, e := range g.Edges {
		p.carriers[k] = [2][]slot{p.carrierSlots(e, e.Src), p.carrierSlots(e, e.Dst)}
	}
	return p, nil
}

// depKey identifies a dependency feature: the struct form of its Key.
type depKey struct {
	src, dst int
	hazard   deps.Hazard
}

// scratch holds Sample's per-draw working state. Draws are hot — a single
// explanation takes thousands of them — so the map and slices are pooled
// and reset instead of reallocated per call. Sample runs concurrently on
// one Perturber (precision sampling is parallel), hence a pool rather
// than a field.
type scratch struct {
	opcodeLocked  []bool
	deleted       []bool
	preservedDeps map[depKey]bool
	locked        []bool // by slotIndex: operand slots no rename may touch
	toBreak       []int  // edges slated for breaking, by index
}

var scratchPool = sync.Pool{
	New: func() any {
		return &scratch{preservedDeps: make(map[depKey]bool, 8)}
	},
}

// getScratch borrows a cleared scratch sized for the perturber's block.
func (p *Perturber) getScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	n := p.block.Len()
	sc.opcodeLocked = resetBools(sc.opcodeLocked, n)
	sc.deleted = resetBools(sc.deleted, n)
	sc.locked = resetBools(sc.locked, n*p.maxOps*int(numParts))
	clear(sc.preservedDeps)
	sc.toBreak = sc.toBreak[:0]
	return sc
}

// resetBools returns a slice of n false values, reusing b's storage.
func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// Block returns the original block.
func (p *Perturber) Block() *x86.BasicBlock { return p.block }

// Graph returns the original block's dependency graph.
func (p *Perturber) Graph() *deps.Graph { return p.graph }

// Features returns ˆP of the original block.
func (p *Perturber) Features() features.Set { return p.feats }

// slotPart locates a register inside an operand.
type slotPart int

const (
	partReg slotPart = iota
	partBase
	partIndex
	partMemWhole // the memory operand as an addressable location (for disp changes)

	numParts
)

// slot addresses one renameable register (or memory expression) position.
type slot struct {
	inst int
	op   int
	part slotPart
}

// slotIndex numbers the block's slots densely.
func (p *Perturber) slotIndex(s slot) int {
	return (s.inst*p.maxOps+s.op)*int(numParts) + int(s.part)
}

// readPreserve marks the opcodes and dependencies the preserved features
// pin and reports whether η is preserved.
func (p *Perturber) readPreserve(sc *scratch, preserve features.Set) (preserveEta bool) {
	n := p.block.Len()
	for _, f := range preserve {
		switch f.Kind {
		case features.KindCount:
			preserveEta = true
		case features.KindInstr:
			if f.Index < n {
				sc.opcodeLocked[f.Index] = true
			}
		case features.KindDep:
			sc.preservedDeps[depKey{f.Src, f.Dst, f.Hazard}] = true
			// Γ preserves the opcodes of the instructions at the ends of
			// every preserved dependency (Section 5.2).
			if f.Src < n {
				sc.opcodeLocked[f.Src] = true
			}
			if f.Dst < n {
				sc.opcodeLocked[f.Dst] = true
			}
		}
	}
	return preserveEta
}

// Sample draws one perturbation retaining the features in preserve.
// The rng must not be shared across goroutines.
func (p *Perturber) Sample(rng *rand.Rand, preserve features.Set) Result {
	// Copy the block: one instruction slice and one operand array.
	insts := make([]x86.Instruction, p.block.Len())
	ops := make([]x86.Operand, p.numOps)
	for i, inst := range p.block.Instructions {
		k := copy(ops, inst.Operands)
		insts[i] = x86.Instruction{Opcode: inst.Opcode, Operands: ops[:k:k]}
		ops = ops[k:]
	}

	sc := p.getScratch()
	defer scratchPool.Put(sc)
	preserveEta := p.readPreserve(sc, preserve)

	// Decide, per non-preserved dependency edge, whether it is explicitly
	// retained (locked), passively retained, or slated for breaking. Edges
	// that carry a preserved feature are always locked.
	for k, e := range p.graph.Edges {
		if sc.preservedDeps[depKey{e.Src, e.Dst, e.Hazard}] {
			p.lockEdgeSlots(k, sc.locked)
			continue
		}
		r := rng.Float64()
		switch {
		case r < p.cfg.PExplicitDepRetain:
			p.lockEdgeSlots(k, sc.locked)
		case r < p.cfg.PExplicitDepRetain+(1-p.cfg.PExplicitDepRetain)*p.cfg.PDepRetain:
			// passively retained this draw
		default:
			sc.toBreak = append(sc.toBreak, k)
		}
	}

	// Vertex perturbation: delete or replace opcodes.
	deleted := sc.deleted
	remaining := len(insts)
	for i := range insts {
		if sc.opcodeLocked[i] {
			continue
		}
		if rng.Float64() < p.cfg.PInstRetain {
			continue
		}
		canDelete := !preserveEta && remaining > 1
		if canDelete && rng.Float64() < p.cfg.PDelete {
			deleted[i] = true
			remaining--
			continue
		}
		p.replaceOpcode(rng, insts, i, sc.locked)
	}

	// Edge perturbation: break dependencies by renaming carrier operands.
	for _, k := range sc.toBreak {
		if e := p.graph.Edges[k]; deleted[e.Src] || deleted[e.Dst] {
			continue // the edge died with its endpoint
		}
		p.breakEdge(rng, insts, k, sc.locked)
	}

	// Compact the survivors in place and record the index mapping.
	out := insts[:0]
	mapping := make([]int, len(insts))
	for i := range insts {
		if deleted[i] {
			mapping[i] = -1
			continue
		}
		mapping[i] = len(out)
		out = append(out, insts[i])
	}
	return Result{Block: x86.NewBlock(out...), Mapping: mapping}
}

// valid reports whether an instruction matches a form of its opcode: the
// allocation-free form of Instruction.Validate for the draw loop.
func valid(inst x86.Instruction) bool {
	spec, ok := inst.Spec()
	return ok && spec.MatchForm(inst.Operands) != nil
}

// replaceOpcode swaps instruction i's opcode for a random valid alternative
// (retaining when none exists, e.g. lea). Under the WholeInstruction scheme
// it additionally renames the instruction's unlocked register operands.
func (p *Perturber) replaceOpcode(rng *rand.Rand, insts []x86.Instruction, i int, locked []bool) {
	cands := x86.ReplacementCandidates(insts[i])
	if len(cands) > 0 {
		insts[i].Opcode = cands[rng.Intn(len(cands))]
	}
	if p.cfg.Scheme != WholeInstruction {
		return
	}
	// Whole-instruction scheme: also rename register operands.
	for op := range insts[i].Operands {
		o := insts[i].Operands[op]
		if o.Kind != x86.KindReg || locked[p.slotIndex(slot{i, op, partReg})] {
			continue
		}
		old := insts[i].Operands[op].Reg
		insts[i].Operands[op].Reg = p.randomRegLike(rng, o.Reg)
		if !valid(insts[i]) {
			insts[i].Operands[op].Reg = old // e.g. shift counts must stay cl
		}
	}
}

// lockEdgeSlots marks every operand slot carrying edge k as unmodifiable.
// Locking a memory location also locks its base and index registers:
// renaming those would change the address and silently break the
// dependency.
func (p *Perturber) lockEdgeSlots(k int, locked []bool) {
	for _, side := range p.carriers[k] {
		for _, s := range side {
			locked[p.slotIndex(s)] = true
			if s.part == partMemWhole {
				locked[p.slotIndex(slot{s.inst, s.op, partBase})] = true
				locked[p.slotIndex(slot{s.inst, s.op, partIndex})] = true
			}
		}
	}
}

// carrierSlots returns the operand slots of instruction idx through which
// edge e is carried (write side for the earlier instruction of RAW/WAW,
// read side for the later instruction of RAW, and so on). Implicit
// register accesses have no slot and thus cannot be renamed.
func (p *Perturber) carrierSlots(e deps.Edge, idx int) []slot {
	inst := p.block.Instructions[idx]
	spec, ok := inst.Spec()
	if !ok {
		return nil
	}
	form := spec.MatchForm(inst.Operands)
	if form == nil {
		return nil
	}
	wantWrite := false
	switch e.Hazard {
	case deps.RAW:
		wantWrite = idx == e.Src
	case deps.WAR:
		wantWrite = idx == e.Dst
	case deps.WAW:
		wantWrite = true
	}

	var slots []slot
	switch p.graph.LocKind(e.Loc) {
	case deps.LocReg:
		fam := x86.RegFamily(e.Loc)
		for i, o := range inst.Operands {
			acc := form.Ops[i].Access
			switch o.Kind {
			case x86.KindReg:
				if o.Reg.Family != fam {
					continue
				}
				if (wantWrite && acc&x86.AccW != 0) || (!wantWrite && acc&x86.AccR != 0) {
					slots = append(slots, slot{idx, i, partReg})
				}
			case x86.KindMem, x86.KindAddr:
				// Address-component registers are always reads.
				if wantWrite {
					continue
				}
				if o.Mem.Base.Family == fam {
					slots = append(slots, slot{idx, i, partBase})
				}
				if o.Mem.Index.Family == fam {
					slots = append(slots, slot{idx, i, partIndex})
				}
			}
		}
	case deps.LocMem:
		// An instruction has at most one memory operand, so the edge's
		// location is that operand's expression.
		for i, o := range inst.Operands {
			if o.Kind == x86.KindMem {
				slots = append(slots, slot{idx, i, partMemWhole})
			}
		}
	case deps.LocStack, deps.LocFlags:
		// Carried implicitly; not renameable.
	}
	return slots
}

// breakEdge attempts to delete dependency edge k by renaming its carrier
// operands on one side. Preference goes to the destination instruction;
// if all carrier slots on both sides are locked or implicit, the
// dependency is retained (the block-specific probability shift of App. D).
func (p *Perturber) breakEdge(rng *rand.Rand, insts []x86.Instruction, k int, locked []bool) {
	sides := [2]int{1, 0} // carriers index: destination, then source
	if rng.Intn(2) == 0 {
		sides = [2]int{0, 1}
	}
	for _, side := range sides {
		slots := p.carriers[k][side]
		if len(slots) == 0 {
			continue
		}
		anyLocked := false
		for _, s := range slots {
			if locked[p.slotIndex(s)] {
				anyLocked = true
				break
			}
		}
		if anyLocked {
			continue
		}
		if p.renameSlots(rng, insts, slots, p.graph.LocKind(p.graph.Edges[k].Loc)) {
			// Renamed slots must not be re-renamed by later breaks, or a
			// subsequent rename could recreate a broken dependency.
			for _, s := range slots {
				locked[p.slotIndex(s)] = true
			}
			return
		}
	}
}

// renameSlots rewrites all given slots (which belong to one instruction and
// one location of the given kind) to a fresh register family or displaced
// address, keeping the instruction valid. Reports whether the rename was
// applied.
func (p *Perturber) renameSlots(rng *rand.Rand, insts []x86.Instruction, slots []slot, kind deps.LocKind) bool {
	idx := slots[0].inst
	var savedBuf [4]x86.Operand
	saved := append(savedBuf[:0], insts[idx].Operands...)

	switch kind {
	case deps.LocReg:
		var oldReg x86.Reg
		switch slots[0].part {
		case partReg:
			oldReg = insts[idx].Operands[slots[0].op].Reg
		case partBase:
			oldReg = insts[idx].Operands[slots[0].op].Mem.Base
		case partIndex:
			oldReg = insts[idx].Operands[slots[0].op].Mem.Index
		}
		fresh := p.freshFamily(rng, oldReg)
		if fresh == x86.FamNone {
			return false
		}
		for _, s := range slots {
			op := &insts[idx].Operands[s.op]
			switch s.part {
			case partReg:
				op.Reg.Family = fresh
			case partBase:
				op.Mem.Base.Family = fresh
			case partIndex:
				op.Mem.Index.Family = fresh
			}
		}
	case deps.LocMem:
		// Slide the address by a random cache-line multiple; same base and
		// index registers, different location key.
		delta := int64(1+rng.Intn(8)) * 64
		if rng.Intn(2) == 0 {
			delta = -delta
		}
		for _, s := range slots {
			insts[idx].Operands[s.op].Mem.Disp += delta
		}
	default:
		return false
	}

	if !valid(insts[idx]) {
		copy(insts[idx].Operands, saved) // e.g. renaming a RequireReg operand
		return false
	}
	return true
}

// freshFamily picks a register family of the same bank as old that no
// instruction of the original block uses, guaranteeing the dependency is
// broken and no new one is created. Falls back to any family other than
// old's when every family is in use. RSP is never chosen.
func (p *Perturber) freshFamily(rng *rand.Rand, old x86.Reg) x86.RegFamily {
	var pool []x86.RegFamily
	if old.IsGP() {
		pool = x86.GPFamilies()
	} else if old.IsVec() {
		pool = x86.VecFamilies()
	} else {
		return x86.FamNone
	}
	used := p.used
	var unusedBuf, othersBuf [16]x86.RegFamily // a bank has 16 families
	unused, others := unusedBuf[:0], othersBuf[:0]
	for _, f := range pool {
		if f == x86.FamRSP || f == old.Family {
			continue
		}
		if used&(1<<uint(f)) != 0 {
			others = append(others, f)
		} else {
			unused = append(unused, f)
		}
	}
	if len(unused) > 0 {
		return unused[rng.Intn(len(unused))]
	}
	if len(others) > 0 {
		return others[rng.Intn(len(others))]
	}
	return x86.FamNone
}

// randomRegLike returns a random register with old's bank and width
// (for the WholeInstruction ablation scheme).
func (p *Perturber) randomRegLike(rng *rand.Rand, old x86.Reg) x86.Reg {
	var pool []x86.RegFamily
	if old.IsGP() {
		pool = x86.GPFamilies()
	} else {
		pool = x86.VecFamilies()
	}
	for {
		f := pool[rng.Intn(len(pool))]
		if f != x86.FamRSP {
			return x86.Reg{Family: f, Size: old.Size}
		}
	}
}

// computeUsedFamilies walks the original block once at New; the result is
// immutable for the Perturber's lifetime (Sample never mutates the
// original block, only copies).
func (p *Perturber) computeUsedFamilies() uint64 {
	var used uint64
	for _, inst := range p.block.Instructions {
		for _, o := range inst.Operands {
			switch o.Kind {
			case x86.KindReg:
				used |= 1 << uint(o.Reg.Family)
			case x86.KindMem, x86.KindAddr:
				if !o.Mem.Base.IsZero() {
					used |= 1 << uint(o.Mem.Base.Family)
				}
				if !o.Mem.Index.IsZero() {
					used |= 1 << uint(o.Mem.Index.Family)
				}
			}
		}
		if spec, ok := inst.Spec(); ok {
			for _, f := range spec.ImplicitReads {
				used |= 1 << uint(f)
			}
			for _, f := range spec.ImplicitWrites {
				used |= 1 << uint(f)
			}
		}
	}
	return used
}

// SpaceSize estimates log10 |Π̂(F)|, the size of the perturbation space
// when preserving F (Appendix F). The estimate multiplies, per vertex, the
// number of opcode choices (retention + replacements + deletion when
// allowed) and, per dependency edge, the number of carrier renamings
// available. It is an estimate of the same flavor as the paper's (which
// reports e.g. |Π̂(β1)(∅)| ≈ 1.94×10^38).
func (p *Perturber) SpaceSize(preserve features.Set) float64 {
	sc := p.getScratch()
	defer scratchPool.Put(sc)
	preserveEta := p.readPreserve(sc, preserve)
	log10 := 0.0
	for i, inst := range p.block.Instructions {
		if sc.opcodeLocked[i] {
			continue
		}
		choices := 1 + len(x86.ReplacementCandidates(inst))
		if !preserveEta {
			choices++
		}
		log10 += math.Log10(float64(choices))
	}
	// Operand-renaming choices are counted per renameable slot (register
	// position), not per edge: several edges can share one slot, and a slot
	// has the same alternative pool regardless of how many dependencies it
	// carries.
	const regAlternatives = 14.0 // same-bank families excluding RSP and current
	for k, e := range p.graph.Edges {
		if sc.preservedDeps[depKey{e.Src, e.Dst, e.Hazard}] {
			p.lockEdgeSlots(k, sc.locked)
		}
	}
	seen := make([]bool, len(sc.locked))
	for k, e := range p.graph.Edges {
		for side, idx := range [2]int{e.Src, e.Dst} {
			if sc.opcodeLocked[idx] {
				continue
			}
			for _, s := range p.carriers[k][side] {
				if i := p.slotIndex(s); !seen[i] && !sc.locked[i] {
					seen[i] = true
					log10 += math.Log10(1 + regAlternatives)
				}
			}
		}
	}
	return log10
}

// FormatSpaceSize renders a log10 magnitude like "1.94e+38".
func FormatSpaceSize(log10 float64) string {
	exp := math.Floor(log10)
	mant := math.Pow(10, log10-exp)
	return fmt.Sprintf("%.2fe+%02d", mant, int(exp))
}
