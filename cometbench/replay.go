package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// replayBudget bounds the time of one replay loop; loops run whole
// rounds over their inputs until it is spent.
const replayBudget = 150 * time.Millisecond

// samplesPerBlock is how many Γ samples replay draws per block, each
// preserving the block's explanation (the precision-sampling shape).
const samplesPerBlock = 16

// crossSamples caps the samples a cross model's Predict replays.
const crossSamples = 128

// measure runs f over rounds of n calls until replayBudget is spent
// (at least one round) inside one span, and returns the time and heap
// allocations per call.
func measure(rc *runCtx, name string, n int, f func(i int)) (nsPerOp, allocsPerOp float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := rc.rec.begin("replay."+name, 0)
	start := time.Now()
	ops := 0
	for ops == 0 || time.Since(start) < replayBudget {
		for i := 0; i < n; i++ {
			f(i)
		}
		ops += n
	}
	el := time.Since(start)
	sp.end()
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

// namedModel is a model measured under a metric prefix.
type namedModel struct {
	name  string
	model costmodel.Model
}

// replay calls each engine layer directly on the workload's own blocks,
// Γ samples and explanations and reports ns/op and allocs/op; each
// cross model's Predict is measured on the same samples.
func replay(rc *runCtx, model costmodel.Model, cfg core.Config, blocks []*x86.BasicBlock, expls []*core.Explanation, cross []namedModel) error {
	var (
		texts      []string
		perturbers []*perturb.Perturber
		preserves  []features.Set
		samples    []perturb.Result
		wexpls     []*wire.Explanation
	)
	rng := rand.New(rand.NewSource(rc.seed))
	for i, b := range blocks {
		if expls[i] == nil {
			continue
		}
		p, err := perturb.New(b, cfg.Perturb)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		texts = append(texts, b.String())
		perturbers = append(perturbers, p)
		preserves = append(preserves, expls[i].Features)
		wexpls = append(wexpls, wire.FromExplanation(expls[i]))
		for k := 0; k < samplesPerBlock; k++ {
			samples = append(samples, p.Sample(rng, expls[i].Features))
		}
	}
	if len(samples) == 0 {
		return fmt.Errorf("replay: no explained blocks")
	}
	graphs := make([]*deps.Graph, len(samples))
	keys := make([]string, len(samples))
	cache := costmodel.NewCache(0)
	for i, s := range samples {
		g, err := s.Graph(cfg.Perturb.DepOptions)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		graphs[i] = g
		keys[i] = costmodel.BlockKey(s.Block)
		cache.Put(keys[i], 1)
	}
	note := fmt.Sprintf("replay over %d blocks, %d samples", len(texts), len(samples))

	var firstErr error
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	ns, _ := measure(rc, "x86.ParseBlock", len(texts), func(i int) { _, err := x86.ParseBlock(texts[i]); keep(err) })
	rc.rep.set("x86.parse_ns", ns, "ns", len(texts), note)
	ns, _ = measure(rc, "perturb.New", len(blocks), func(i int) { _, err := perturb.New(blocks[i], cfg.Perturb); keep(err) })
	rc.rep.set("perturb.new_us", ns/1e3, "us", len(blocks), note)
	ns, allocs := measure(rc, "perturb.Sample", len(samples), func(i int) {
		p := i % len(perturbers)
		_ = perturbers[p].Sample(rng, preserves[p])
	})
	rc.rep.set("perturb.sample_ns", ns, "ns", len(samples), note+"; preserving the explanation")
	rc.rep.set("perturb.sample_allocs", allocs, "count", len(samples), note)
	ns, allocs = measure(rc, "deps.Build", len(samples), func(i int) { _, err := samples[i].Graph(cfg.Perturb.DepOptions); keep(err) })
	rc.rep.set("deps.build_ns", ns, "ns", len(samples), note+"; via Result.Graph")
	rc.rep.set("deps.build_allocs", allocs, "count", len(samples), note)
	var pairs [][2]int // (sample, feature) pairs of each sample's own block
	for i := range samples {
		for j := range perturbers[i/samplesPerBlock].Features() {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	ns, _ = measure(rc, "features.ContainedIn", len(pairs), func(i int) {
		s, f := pairs[i][0], pairs[i][1]
		_ = perturbers[s/samplesPerBlock].Features()[f].ContainedIn(samples[s].Block, graphs[s], samples[s].Mapping)
	})
	rc.rep.set("features.contained_ns", ns, "ns", len(pairs), note)
	ns, allocs = measure(rc, "costmodel.BlockKey", len(samples), func(i int) { _ = costmodel.BlockKey(samples[i].Block) })
	rc.rep.set("costmodel.key_ns", ns, "ns", len(samples), note)
	rc.rep.set("costmodel.key_allocs", allocs, "count", len(samples), note)
	ns, _ = measure(rc, "costmodel.Cache.Get", len(keys), func(i int) { _, _ = cache.Get(keys[i]) })
	rc.rep.set("costmodel.cache_get_ns", ns, "ns", len(keys), note+"; hits")
	ns, allocs = measure(rc, "model.Predict", len(samples), func(i int) { _ = model.Predict(samples[i].Block) })
	rc.rep.set("model.predict_ns", ns, "ns", len(samples), note+"; "+model.Name())
	rc.rep.set("model.predict_allocs", allocs, "count", len(samples), note)
	// Cross models can cost a millisecond a call; a prefix of the
	// samples keeps their loops near replayBudget.
	nc := min(len(samples), crossSamples)
	for _, cm := range cross {
		ns, _ = measure(rc, cm.name+".Predict", nc, func(i int) { _ = cm.model.Predict(samples[i].Block) })
		rc.rep.set(cm.name+".predict_ns", ns, "ns", nc, fmt.Sprintf("replay over the first %d samples; %s", nc, cm.model.Name()))
	}

	frames := make([][]byte, len(wexpls))
	for i, w := range wexpls {
		b, err := wire.EncodeBinary(w)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		frames[i] = b
	}
	enote := fmt.Sprintf("replay over %d explanations", len(wexpls))
	ns, _ = measure(rc, "wire.json.Marshal", len(wexpls), func(i int) { _, err := json.Marshal(wexpls[i]); keep(err) })
	rc.rep.set("wire.json_encode_ns", ns, "ns", len(wexpls), enote)
	ns, _ = measure(rc, "wire.EncodeBinary", len(wexpls), func(i int) { _, err := wire.EncodeBinary(wexpls[i]); keep(err) })
	rc.rep.set("wire.binary_encode_ns", ns, "ns", len(wexpls), enote)
	ns, _ = measure(rc, "wire.DecodeBinary", len(frames), func(i int) { _, err := wire.DecodeBinary(frames[i]); keep(err) })
	rc.rep.set("wire.binary_decode_ns", ns, "ns", len(frames), enote)

	store, err := persist.Open(filepath.Join(rc.dir, "replay-store"), persist.Options{})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer store.Close()
	recs := make([]*wire.Record, len(wexpls))
	for i, w := range wexpls {
		recs[i] = &wire.Record{V: wire.RecordVersion, Kind: wire.RecordExplanation,
			Key: fmt.Sprintf("replay-%d", i), Spec: model.Name(), Explanation: w}
	}
	ns, _ = measure(rc, "persist.Log.Put", len(recs), func(i int) {
		keep(store.Put(recs[i]))
	})
	rc.rep.set("persist.put_us", ns/1e3, "us", len(recs), enote+"; OS-durable, no fsync")
	ns, _ = measure(rc, "persist.Log.Get", len(recs), func(i int) {
		if _, ok := store.Get(wire.RecordExplanation, recs[i].Key); !ok {
			keep(fmt.Errorf("persist: record %s not found", recs[i].Key))
		}
	})
	rc.rep.set("persist.get_us", ns/1e3, "us", len(recs), enote)
	rc.op(firstErr)
	return nil
}
