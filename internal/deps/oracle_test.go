package deps_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/x86"
)

// oracleLoc is a location named by its canonical text, ordered the way
// the multigraph orders locations: registers by family, memory by LocKey
// text, then the stack, then the flags.
type oracleLoc struct {
	kind deps.LocKind
	fam  x86.RegFamily
	mem  string
}

func (l oracleLoc) name() string {
	switch l.kind {
	case deps.LocReg:
		return x86.FamilyName(l.fam)
	case deps.LocMem:
		return l.mem
	case deps.LocStack:
		return "stack"
	}
	return "flags"
}

func (l oracleLoc) less(o oracleLoc) bool {
	if l.kind != o.kind {
		return l.kind < o.kind
	}
	if l.fam != o.fam {
		return l.fam < o.fam
	}
	return l.mem < o.mem
}

// oracleAccess lists the locations one instruction reads and writes,
// straight from its matched form and spec.
func oracleAccess(inst x86.Instruction, opts deps.Options) (reads, writes map[oracleLoc]bool) {
	reads, writes = map[oracleLoc]bool{}, map[oracleLoc]bool{}
	spec, _ := inst.Spec()
	form := spec.MatchForm(inst.Operands)
	reg := func(f x86.RegFamily) oracleLoc { return oracleLoc{kind: deps.LocReg, fam: f} }
	for i, op := range inst.Operands {
		acc := form.Ops[i].Access
		var loc oracleLoc
		switch op.Kind {
		case x86.KindReg:
			loc = reg(op.Reg.Family)
		case x86.KindMem, x86.KindAddr:
			for _, f := range op.Mem.Regs() {
				reads[reg(f)] = true
			}
			if op.Kind == x86.KindAddr {
				continue
			}
			loc = oracleLoc{kind: deps.LocMem, mem: op.Mem.LocKey()}
		default:
			continue
		}
		if acc&x86.AccR != 0 {
			reads[loc] = true
		}
		if acc&x86.AccW != 0 {
			writes[loc] = true
		}
	}
	for _, f := range spec.ImplicitReads {
		reads[reg(f)] = true
	}
	for _, f := range spec.ImplicitWrites {
		writes[reg(f)] = true
	}
	if spec.StackRead {
		reads[oracleLoc{kind: deps.LocStack}] = true
	}
	if spec.StackWrite {
		writes[oracleLoc{kind: deps.LocStack}] = true
	}
	if opts.TrackFlags && spec.ReadsFlags {
		reads[oracleLoc{kind: deps.LocFlags}] = true
	}
	if opts.TrackFlags && spec.WritesFlags {
		writes[oracleLoc{kind: deps.LocFlags}] = true
	}
	return reads, writes
}

// oracleEdges is the brute-force multigraph: every pair i < j, every
// hazard, every location both touch in the hazard's directions, in
// (i, j, hazard, location) order. Kill-based analysis drops a pair's
// location when an instruction strictly between them writes it.
func oracleEdges(b *x86.BasicBlock, opts deps.Options) []string {
	n := b.Len()
	reads := make([]map[oracleLoc]bool, n)
	writes := make([]map[oracleLoc]bool, n)
	all := map[oracleLoc]bool{}
	for i, inst := range b.Instructions {
		reads[i], writes[i] = oracleAccess(inst, opts)
		for l := range reads[i] {
			all[l] = true
		}
		for l := range writes[i] {
			all[l] = true
		}
	}
	locs := make([]oracleLoc, 0, len(all))
	for l := range all {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i].less(locs[j]) })
	var out []string
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, h := range []deps.Hazard{deps.RAW, deps.WAR, deps.WAW} {
				for _, l := range locs {
					var hit bool
					switch h {
					case deps.RAW:
						hit = writes[i][l] && reads[j][l]
					case deps.WAR:
						hit = reads[i][l] && writes[j][l]
					case deps.WAW:
						hit = writes[i][l] && writes[j][l]
					}
					for k := i + 1; hit && opts.LastWriterOnly && k < j; k++ {
						hit = !writes[k][l]
					}
					if hit {
						out = append(out, fmt.Sprintf("%d %d %s %s", i, j, h, l.name()))
					}
				}
			}
		}
	}
	return out
}

// checkAgainstOracle builds b's graph under every option combination and
// compares its edge list, in order, with the oracle's.
func checkAgainstOracle(t *testing.T, b *x86.BasicBlock) {
	t.Helper()
	for _, opts := range []deps.Options{{}, {TrackFlags: true}, {LastWriterOnly: true}, {TrackFlags: true, LastWriterOnly: true}} {
		g, err := deps.Build(b, opts)
		if err != nil {
			t.Fatalf("%v\n%s", err, b)
		}
		want := oracleEdges(b, opts)
		got := make([]string, len(g.Edges))
		for i, e := range g.Edges {
			got[i] = fmt.Sprintf("%d %d %s %s", e.Src, e.Dst, e.Hazard, g.LocName(e.Loc))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("options %+v, block\n%s\nedges  %q\noracle %q", opts, b, got, want)
		}
	}
}

// TestBuildMatchesOracle compares Build with the brute-force oracle on
// generated blocks and on one Γ perturbation of each, which renames
// registers and slides memory displacements.
func TestBuildMatchesOracle(t *testing.T) {
	gen := bhive.Generate(bhive.Config{N: 5000, Seed: 7, MinInstrs: 1, MaxInstrs: 14, SkipLabels: true})
	rng := rand.New(rand.NewSource(7))
	for _, blk := range gen {
		checkAgainstOracle(t, blk.Block)
		p, err := perturb.New(blk.Block, perturb.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, p.Sample(rng, nil).Block)
	}
}

// FuzzDepsBuild parses arbitrary text; every block that parses must build
// the oracle's edge list and survive ParseBlock → Build → perturb.New →
// Sample.
func FuzzDepsBuild(f *testing.F) {
	for _, blk := range bhive.Generate(bhive.Config{N: 64, Seed: 1, SkipLabels: true}) {
		f.Add(blk.Block.String())
	}
	f.Add("push rax\npop rbx\nadc rcx, qword ptr [rsp + 8]")
	f.Fuzz(func(t *testing.T, src string) {
		b, err := x86.ParseBlock(src)
		if err != nil {
			return
		}
		checkAgainstOracle(t, b)
		p, err := perturb.New(b, perturb.DefaultConfig())
		if err != nil {
			t.Fatalf("perturb.New on a parsed block: %v", err)
		}
		rng := rand.New(rand.NewSource(int64(len(src))))
		for _, preserve := range []features.Set{nil, p.Features()[:len(p.Features())/2]} {
			p.Sample(rng, preserve)
		}
	})
}
