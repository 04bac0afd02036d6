// Package mca implements a static-analysis cost model in the style of
// LLVM-MCA / IACA / OSACA — the third traditional model family the paper
// discusses (§1). Instead of simulating execution cycle by cycle, it
// computes closed-form resource bounds from the instruction stream:
//
//	throughput = max( uops / issue width,
//	                  per-port pressure,
//	                  loop-carried dependency-chain latency )
//
// with port pressure distributed fractionally across eligible ports (the
// optimistic assumption real static analyzers make). The paper notes such
// models "often have a high error in their predictions" relative to
// simulators like uiCA — a property this implementation reproduces, which
// makes it a useful third subject for COMET's comparative explanations.
package mca

import (
	"math"

	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/x86"
)

// Model is the static-analysis throughput model.
type Model struct {
	arch   x86.Arch
	params x86.ArchParams
}

var (
	_ costmodel.Model      = (*Model)(nil)
	_ costmodel.BatchModel = (*Model)(nil)
)

// New builds the static analyzer for a microarchitecture.
func New(arch x86.Arch) *Model {
	return &Model{arch: arch, params: x86.Params(arch)}
}

// Name implements costmodel.Model.
func (m *Model) Name() string { return "mca" }

// Arch implements costmodel.Model.
func (m *Model) Arch() x86.Arch { return m.arch }

// Predict implements costmodel.Model. Invalid blocks yield +Inf.
func (m *Model) Predict(b *x86.BasicBlock) float64 {
	if b == nil || b.Len() == 0 {
		return math.Inf(1)
	}
	uops := 0
	pressure := make([]float64, m.params.NumPorts)
	for _, inst := range b.Instructions {
		spec, ok := inst.Spec()
		if !ok {
			return math.Inf(1)
		}
		perf := x86.PerfOf(m.arch, inst)
		loads, stores := x86.MemUops(spec, inst)
		hasCompute := true
		switch spec.Class {
		case x86.ClassMov, x86.ClassVecMov, x86.ClassPush, x86.ClassPop:
			if loads+stores > 0 {
				hasCompute = false
			}
		}
		if hasCompute {
			uops++
			occ := 1.0
			if perf.Unpipelined {
				occ = math.Ceil(perf.RThru)
			}
			spread(pressure, perf.Ports, occ)
		}
		for l := 0; l < loads; l++ {
			uops++
			spread(pressure, m.params.LoadPorts, 1)
		}
		for s := 0; s < stores; s++ {
			uops += 2
			spread(pressure, m.params.StoreDataPts, 1)
			spread(pressure, m.params.StoreAddrPts, 1)
		}
	}

	bound := float64(uops) / float64(m.params.IssueWidth)
	for _, p := range pressure {
		if p > bound {
			bound = p
		}
	}
	if chain := m.chainBound(b); chain > bound {
		bound = chain
	}
	return bound
}

// PredictBatch implements costmodel.BatchModel by parallel fan-out; the
// analysis is closed-form and stateless.
func (m *Model) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	return costmodel.FanOut(blocks, 0, m.Predict)
}

// spread divides occupancy evenly across the eligible ports — static
// analyzers assume an ideal scheduler.
func spread(pressure []float64, ports x86.PortSet, occupancy float64) {
	n := ports.Count()
	if n == 0 {
		return
	}
	share := occupancy / float64(n)
	for p := 0; p < len(pressure); p++ {
		if ports.Contains(p) {
			pressure[p] += share
		}
	}
}

// chainBound computes the longest loop-carried dependency cycle by
// unrolling the block twice and taking the longest path that crosses the
// iteration boundary, using per-instruction latencies. This is the static
// analogue of the simulator's dependency pacing; it ignores load latency
// unless the chain goes through memory, like llvm-mca's default.
func (m *Model) chainBound(b *x86.BasicBlock) float64 {
	g, err := deps.Build(b, deps.Options{LastWriterOnly: true})
	if err != nil {
		return 0
	}
	lat := make([]float64, b.Len())
	for i, inst := range b.Instructions {
		p := x86.PerfOf(m.arch, inst)
		lat[i] = float64(p.Lat)
		spec, _ := inst.Spec()
		if loads, _ := x86.MemUops(spec, inst); loads > 0 {
			lat[i] += float64(m.params.LoadLat)
		}
	}
	// Longest path over two unrolled iterations, RAW edges only (true
	// dependencies).
	n := b.Len()
	dist := make([]float64, 2*n)
	for i := 0; i < 2*n; i++ {
		dist[i] = lat[i%n]
	}
	relax := func(src, dst int) {
		if d := dist[src] + lat[dst%n]; d > dist[dst] {
			dist[dst] = d
		}
	}
	// Each location's last writer in the block, and every instruction's
	// reads and writes, for the cross-iteration edges.
	last := make([]int, g.NumLocs())
	for i := range last {
		last[i] = -1
	}
	reads, writes := make([][]deps.Loc, n), make([][]deps.Loc, n)
	for i := 0; i < n; i++ {
		reads[i] = g.AppendReads(nil, i)
		writes[i] = g.AppendWrites(nil, i)
		for _, l := range writes[i] {
			last[l] = i
		}
	}
	for iter := 0; iter < 2; iter++ {
		for _, e := range g.Edges {
			if e.Hazard != deps.RAW {
				continue
			}
			src, dst := e.Src+iter*n, e.Dst+iter*n
			relax(src, dst)
		}
		if iter == 0 {
			// Cross-iteration edges: a write in iteration 0 feeding a read
			// at the same or earlier position in iteration 1.
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if crossDep(writes[i], reads[j], last, i) {
						relax(i, j+n)
					}
				}
			}
		}
	}
	best := 0.0
	for i := n; i < 2*n; i++ {
		if gain := dist[i] - dist[i%n]; gain > best {
			best = gain
		}
	}
	return best
}

// crossDep reports whether instruction i's writes feed another
// instruction's reads across the loop back-edge.
func crossDep(writes, reads []deps.Loc, last []int, i int) bool {
	for _, w := range writes {
		for _, r := range reads {
			// Only a loop-carried dependency if no later write in the
			// same iteration kills it before the back edge... static
			// analyzers approximate; we require i to be the last writer
			// of the location.
			if w == r && last[w] == i {
				return true
			}
		}
	}
	return false
}
