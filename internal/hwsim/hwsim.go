// Package hwsim is an out-of-order, port-based steady-state throughput
// simulator for the modeled x86 subset. It plays two roles in this
// reproduction (see DESIGN.md):
//
//   - at full fidelity it stands in for the real Haswell/Skylake hardware
//     that labeled the BHive dataset, producing the "actual throughput"
//     ground truth every cost model is scored against;
//   - with a coarsened configuration it becomes the uiCA surrogate — an
//     accurate but imperfect simulation-based cost model (see package
//     uica).
//
// The simulator issues each instruction's micro-ops (compute, load,
// store-data, store-address) in program order over many loop iterations,
// scheduling each uop at the earliest cycle permitted by its operand
// readiness (through the same location model the dependency analyzer
// uses), the availability of an eligible execution port, and the frontend
// issue width. Steady-state throughput is the cycle-per-iteration slope
// over the second half of the simulated iterations, which is how
// throughput is defined for BHive ("average cycles per iteration when
// looped in steady state").
package hwsim

import (
	"math"

	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/x86"
)

// Config selects the microarchitecture and the fidelity knobs. The zero
// value is not useful; start from HardwareConfig or ApproxConfig.
type Config struct {
	Arch       x86.Arch
	Iterations int // loop iterations to simulate (≥ 8)

	// Fidelity knobs. HardwareConfig leaves them at full fidelity; the
	// uiCA surrogate coarsens them, which is what gives it a small but
	// non-zero prediction error concentrated on store- and divide-heavy
	// blocks — mirroring how real analytical simulators deviate from
	// silicon.
	ModelStoreAddr  bool    // model store-address uop port pressure
	LoadLatDelta    int     // added to the arch's L1 load-to-use latency
	StoreForwardLat int     // store→load forwarding latency
	DivRThruDelta   float64 // added to divide reciprocal throughput
}

// HardwareConfig returns the full-fidelity configuration used as the
// stand-in for real hardware measurements.
func HardwareConfig(arch x86.Arch) Config {
	return Config{
		Arch:            arch,
		Iterations:      64,
		ModelStoreAddr:  true,
		StoreForwardLat: 3,
	}
}

// ApproxConfig returns the coarsened configuration behind the uiCA
// surrogate: no store-address port modeling, one cycle less load latency,
// cheaper store forwarding, and slightly optimistic divides.
func ApproxConfig(arch x86.Arch) Config {
	return Config{
		Arch:            arch,
		Iterations:      64,
		ModelStoreAddr:  false,
		LoadLatDelta:    -1,
		StoreForwardLat: 2,
		DivRThruDelta:   -2,
	}
}

// Simulator predicts basic-block throughput under one Config.
// It is stateless across Throughput calls and safe for concurrent use.
type Simulator struct {
	cfg    Config
	params x86.ArchParams
}

// New builds a simulator.
func New(cfg Config) *Simulator {
	if cfg.Iterations < 8 {
		cfg.Iterations = 64
	}
	return &Simulator{cfg: cfg, params: x86.Params(cfg.Arch)}
}

// Name implements costmodel.Model.
func (s *Simulator) Name() string { return "hwsim" }

// Arch implements costmodel.Model.
func (s *Simulator) Arch() x86.Arch { return s.cfg.Arch }

// Predict implements costmodel.Model.
func (s *Simulator) Predict(b *x86.BasicBlock) float64 { return s.Throughput(b) }

// PredictBatch implements costmodel.BatchModel by parallel fan-out: the
// simulator keeps no per-call state, so blocks simulate independently.
func (s *Simulator) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	return costmodel.FanOut(blocks, 0, s.Predict)
}

// instPlan is the per-instruction scheduling recipe, precomputed once per
// block.
type instPlan struct {
	reads, writes []deps.Loc
	perf          x86.Perf
	occupancy     float64 // cycles the compute uop holds its port
	loads, stores int
	uops          int
	hasCompute    bool // pure loads/stores (mov/push/pop) have no ALU uop
	rspFast       bool // push/pop update rsp through the stack engine
}

// Throughput returns the predicted steady-state cycles per iteration.
// Invalid blocks yield +Inf (they cannot execute).
func (s *Simulator) Throughput(b *x86.BasicBlock) float64 {
	plans, tab, ok := s.plan(b)
	if !ok {
		return math.Inf(1)
	}

	// One buffer: the cycle each location's value is ready, each port's
	// next free cycle, and each iteration's end cycle.
	nl, np := tab.NumLocs(), s.params.NumPorts
	buf := make([]float64, nl+np+s.cfg.Iterations)
	ready, portFree, iterEnd := buf[:nl], buf[nl:nl+np], buf[nl+np:]
	uopCount := 0

	loadLat := s.loadLat()

	for iter := 0; iter < s.cfg.Iterations; iter++ {
		end := 0.0
		for _, p := range plans {
			// Frontend: uops enter the backend at issue-width per cycle.
			frontend := float64(uopCount) / float64(s.params.IssueWidth)
			uopCount += p.uops

			// Operand readiness.
			src := 0.0
			for _, l := range p.reads {
				if t := ready[l]; t > src {
					src = t
				}
			}

			start := math.Max(frontend, src)
			issue := start // cycle the first uop of the instruction issues

			// Load uops: issue on a load port, extend the data-ready chain.
			dataLat := 0.0
			for l := 0; l < p.loads; l++ {
				start = s.issueOnPort(start, s.params.LoadPorts, 1, portFree)
				issue = start
				dataLat = loadLat
			}

			// Compute uop.
			dataDone := start + dataLat
			if p.hasCompute {
				start = s.issueOnPort(start, p.perf.Ports, p.occupancy, portFree)
				issue = start
				dataDone = start + float64(p.perf.Lat) + dataLat
			}

			// Store uops: the written memory location becomes visible to
			// later loads after the store-forwarding latency.
			memDone := dataDone
			for st := 0; st < p.stores; st++ {
				start = s.issueOnPort(start, s.params.StoreDataPts, 1, portFree)
				issue = start
				if s.cfg.ModelStoreAddr {
					s.issueOnPort(start, s.params.StoreAddrPts, 1, portFree)
				}
				memDone = start + float64(s.cfg.StoreForwardLat)
			}

			done := math.Max(dataDone, memDone)
			for _, l := range p.writes {
				switch {
				case p.rspFast && l == deps.Loc(x86.FamRSP):
					// The stack engine renames rsp at issue; push/pop
					// chains do not serialize on the memory access.
					ready[l] = issue + 1
				case tab.LocKind(l) == deps.LocMem || tab.LocKind(l) == deps.LocStack:
					ready[l] = memDone
				default:
					ready[l] = dataDone
				}
			}
			if done > end {
				end = done
			}
			if prev := iterEnd[max(0, iter-1)]; iter > 0 && prev > end {
				end = prev
			}
		}
		iterEnd[iter] = end
	}

	half := s.cfg.Iterations / 2
	cycles := (iterEnd[s.cfg.Iterations-1] - iterEnd[half-1]) / float64(s.cfg.Iterations-half)
	if cycles < 0 {
		cycles = 0
	}
	return cycles
}

// issueOnPort finds the eligible port that frees earliest, issues the uop
// there no earlier than earliest, marks the port busy for occupancy
// cycles, and returns the issue cycle.
func (s *Simulator) issueOnPort(earliest float64, eligible x86.PortSet, occupancy float64, portFree []float64) float64 {
	best := -1
	bestFree := math.Inf(1)
	for n := 0; n < len(portFree); n++ {
		if !eligible.Contains(n) {
			continue
		}
		if portFree[n] < bestFree {
			bestFree = portFree[n]
			best = n
		}
	}
	if best < 0 {
		return earliest
	}
	start := math.Max(earliest, portFree[best])
	portFree[best] = start + occupancy
	return start
}

func (s *Simulator) plan(b *x86.BasicBlock) ([]instPlan, deps.Table, bool) {
	if b == nil || b.Len() == 0 {
		return nil, deps.Table{}, false
	}
	tab, err := deps.NewTable(b, deps.Options{})
	if err != nil {
		return nil, deps.Table{}, false
	}
	plans := make([]instPlan, 0, b.Len())
	locs := make([]deps.Loc, 0, 4*b.Len()) // backs every instruction's reads and writes
	for i, inst := range b.Instructions {
		spec, _ := inst.Spec() // NewTable rejected unknown opcodes
		perf := x86.PerfOf(s.cfg.Arch, inst)
		loads, stores := x86.MemUops(spec, inst)
		// Pure data movement to or from memory has no ALU uop: a store is
		// store-data (+ store-address), a load is just the load uop.
		hasCompute := true
		switch spec.Class {
		case x86.ClassMov, x86.ClassVecMov, x86.ClassPush, x86.ClassPop:
			if loads+stores > 0 {
				hasCompute = false
			}
		}
		uops := loads + stores
		if hasCompute {
			uops++
		}
		if s.cfg.ModelStoreAddr {
			uops += stores
		}
		occupancy := 1.0
		if perf.Unpipelined {
			occupancy = math.Ceil(max(1, perf.RThru+s.cfg.DivRThruDelta))
		}
		n := len(locs)
		locs = tab.AppendReads(locs, i)
		reads := locs[n:]
		n = len(locs)
		locs = tab.AppendWrites(locs, i)
		plans = append(plans, instPlan{
			reads:      reads,
			writes:     locs[n:],
			perf:       perf,
			occupancy:  occupancy,
			loads:      loads,
			stores:     stores,
			uops:       uops,
			hasCompute: hasCompute,
			rspFast:    spec.StackRead || spec.StackWrite,
		})
	}
	return plans, tab, true
}

// loadLat is the load-to-use latency the configuration simulates.
func (s *Simulator) loadLat() float64 {
	return max(1, float64(s.params.LoadLat+s.cfg.LoadLatDelta))
}
