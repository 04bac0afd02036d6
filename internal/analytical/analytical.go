// Package analytical implements C, the paper's crude-but-interpretable
// analytical cost model (Section 6, eq. 8 and Appendix G), together with
// its closed-form ground-truth explanations GT(β) (eq. 9). C exists so
// COMET's explanation *accuracy* can be measured objectively: because C's
// bottleneck feature is known analytically, an explanation is accurate iff
// it names at least one maximum-cost feature and nothing else.
//
// Cost functions (Appendix G):
//
//	cost_inst(inst) = the instruction's standalone reciprocal throughput
//	                  (from the embedded uops.info-style table);
//	cost_dep(δij)   = cost_inst(i) + cost_inst(j) for RAW (a true
//	                  dependency serializes the pair), 0 for WAR/WAW
//	                  (resolved by register renaming);
//	cost_η(n)       = n/4 (the issue-width baseline of Abel & Reineke).
//
// C(β) = max(cost_η, max_i cost_inst, max_ij cost_dep).
package analytical

import (
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/x86"
)

// Model is the crude interpretable cost model C for one microarchitecture.
type Model struct {
	arch    x86.Arch
	depOpts deps.Options
}

var (
	_ costmodel.Model      = (*Model)(nil)
	_ costmodel.BatchModel = (*Model)(nil)
)

// New builds C for the given microarchitecture.
func New(arch x86.Arch) *Model {
	return &Model{arch: arch}
}

// Name implements costmodel.Model.
func (m *Model) Name() string { return "C" }

// Arch implements costmodel.Model.
func (m *Model) Arch() x86.Arch { return m.arch }

// Epsilon is the ε-ball radius the paper uses when explaining C: a quarter
// unit, the smallest possible change of cost_η.
const Epsilon = 0.25

// CostInst returns cost_inst for one instruction.
func (m *Model) CostInst(inst x86.Instruction) float64 {
	return x86.InstThroughput(m.arch, inst)
}

// CostDep returns cost_dep for a dependency edge between the two
// instructions (eq. 10 in Appendix G).
func (m *Model) CostDep(h deps.Hazard, src, dst x86.Instruction) float64 {
	if h != deps.RAW {
		return 0
	}
	return m.CostInst(src) + m.CostInst(dst)
}

// CostEta returns cost_η(n) = n/4.
func (m *Model) CostEta(n int) float64 { return float64(n) / 4 }

// Predict implements costmodel.Model: C(β) per eq. 8, straight from the
// dependency graph's RAW edges and per-instruction costs (WAR and WAW
// edges cost 0). Invalid blocks cost 0.
func (m *Model) Predict(b *x86.BasicBlock) float64 {
	g, err := deps.Build(b, m.depOpts)
	if err != nil {
		return 0
	}
	var costBuf [16]float64
	costs := costBuf[:0]
	max := m.CostEta(b.Len())
	for _, inst := range b.Instructions {
		c := m.CostInst(inst)
		costs = append(costs, c)
		if c > max {
			max = c
		}
	}
	for _, e := range g.Edges {
		if e.Hazard != deps.RAW {
			continue
		}
		if c := costs[e.Src] + costs[e.Dst]; c > max {
			max = c
		}
	}
	return max
}

// PredictBatch implements costmodel.BatchModel by parallel fan-out; the
// model is stateless, so evaluations are independent.
func (m *Model) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	return costmodel.FanOut(blocks, 0, m.Predict)
}

// GroundTruth returns GT(β): every feature of ˆP whose cost equals C(β)
// (eq. 9). The set may contain several equally-critical features.
func (m *Model) GroundTruth(b *x86.BasicBlock) (features.Set, error) {
	_, gt, err := m.evaluate(b)
	return gt, err
}

// evaluate computes C(β) and the argmax feature set in one pass.
func (m *Model) evaluate(b *x86.BasicBlock) (float64, features.Set, error) {
	g, err := deps.Build(b, m.depOpts)
	if err != nil {
		return 0, nil, err
	}
	all := features.Extract(g)

	cost := func(f features.Feature) float64 {
		switch f.Kind {
		case features.KindInstr:
			return m.CostInst(b.Instructions[f.Index])
		case features.KindDep:
			return m.CostDep(f.Hazard, b.Instructions[f.Src], b.Instructions[f.Dst])
		case features.KindCount:
			return m.CostEta(f.Count)
		}
		return 0
	}

	max := 0.0
	for _, f := range all {
		if c := cost(f); c > max {
			max = c
		}
	}
	var gt features.Set
	const tie = 1e-9
	for _, f := range all {
		if cost(f) >= max-tie {
			gt = append(gt, f)
		}
	}
	return max, gt, nil
}

// FeatureCost exposes the per-feature cost, used by tests and the
// experiment harness to cross-check GT(β).
func (m *Model) FeatureCost(b *x86.BasicBlock, f features.Feature) float64 {
	switch f.Kind {
	case features.KindInstr:
		if f.Index < b.Len() {
			return m.CostInst(b.Instructions[f.Index])
		}
	case features.KindDep:
		if f.Src < b.Len() && f.Dst < b.Len() {
			return m.CostDep(f.Hazard, b.Instructions[f.Src], b.Instructions[f.Dst])
		}
	case features.KindCount:
		return m.CostEta(f.Count)
	}
	return 0
}
