package comet_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explanations.golden from the current code")

// goldenEntry pins one (model, block) explanation: its wire JSON, the
// prediction-cache key of its block and its store content address.
type goldenEntry struct {
	Spec     string          `json:"spec"`
	Block    int             `json:"block"`
	BlockKey string          `json:"block_key"`
	StoreKey string          `json:"store_key"`
	Wire     json.RawMessage `json:"wire"`
}

// TestExplanationBytesPinned fixes the bytes of explanations on a small
// generated corpus for every closed-form and simulated zoo model. Any
// refactor of the perturbation, dependency, feature or keying layers must
// leave all three pinned values unchanged: they are what the prediction
// cache, the artifact store and byte-identity across serving paths key on.
// Regenerate with `go test -run TestExplanationBytesPinned -update .` only
// for a change that means to alter explanations (and bumps
// wire.RecordVersion with it).
func TestExplanationBytesPinned(t *testing.T) {
	blocks := comet.GenerateBlocks(12, 1)
	models := []string{"c", "mca", "hwsim", "uica"}
	perModel := make([][]goldenEntry, len(models))
	t.Run("explain", func(t *testing.T) {
		for m, name := range models {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				perModel[m] = explainGolden(t, name, blocks)
			})
		}
	})
	if t.Failed() {
		return
	}
	var got []goldenEntry
	for _, es := range perModel {
		got = append(got, es...)
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := filepath.Join("testdata", "explanations.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(out, want) {
		return
	}
	var wantEntries []goldenEntry
	if err := json.Unmarshal(want, &wantEntries); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	if len(wantEntries) != len(got) {
		t.Fatalf("%d pinned explanations, got %d", len(wantEntries), len(got))
	}
	for i, w := range wantEntries {
		g := got[i]
		for _, d := range []struct{ what, want, got string }{
			{"spec", w.Spec, g.Spec},
			{"block key", w.BlockKey, g.BlockKey},
			{"store key", w.StoreKey, g.StoreKey},
			{"wire JSON", string(w.Wire), string(g.Wire)},
		} {
			if d.want != d.got {
				t.Errorf("%s block %d: %s changed\nwant %s\n got %s", w.Spec, w.Block, d.what, d.want, d.got)
			}
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs in formatting only; regenerate with -update", path)
	}
}

// explainGolden explains every block with one zoo model at seed 1 and
// Parallelism 1, the serving layer's reproducible settings.
func explainGolden(t *testing.T, name string, blocks []*comet.BasicBlock) []goldenEntry {
	rm, err := comet.ResolveModelString(name)
	if err != nil {
		t.Fatal(err)
	}
	spec := rm.Spec.String()
	base := core.DefaultConfig()
	base.Epsilon = rm.Epsilon
	base.CoverageSamples = 100
	cfg := core.ApplyOptions(base, core.WithSeed(1), core.WithParallelism(1))
	ex := core.NewExplainer(rm.Model, cfg)
	var out []goldenEntry
	for i, b := range blocks {
		expl, err := ex.Explain(b)
		if err != nil {
			t.Fatalf("%s block %d: %v", spec, i, err)
		}
		js, err := json.Marshal(wire.FromExplanation(expl))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenEntry{
			Spec:     spec,
			Block:    i,
			BlockKey: costmodel.BlockKey(b),
			StoreKey: persist.ExplanationKey(spec, wire.SnapshotConfig(cfg), b.String()),
			Wire:     js,
		})
	}
	return out
}
