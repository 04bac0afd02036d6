package comet_test

import (
	"math/rand"
	"testing"

	"github.com/comet-explain/comet/internal/analytical"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/hwsim"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/x86"
)

// allocBlock has registers, two distinct memory expressions, the stack
// and implicit operands, so every part of the location namespace is in
// play.
const allocBlock = `mov qword ptr [rdi + 24], rdx
mov rax, qword ptr [rbx + rcx*8 + 16]
add rax, qword ptr [rdi + 24]
push rax
imul rdx, rax
pop rbx
div rcx`

// TestHotPathAllocs gates the allocations of each per-query layer on a
// fixed block exactly: the counts are deterministic, so any change to them
// is a deliberate one that updates this table. The race detector
// allocates on its own, hence the skip.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	b := x86.MustParseBlock(allocBlock)
	p, err := perturb.New(b, perturb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	preserve := p.Features()[:1]
	for i := 0; i < 500; i++ { // fill the replacement-candidate cache
		p.Sample(rng, preserve)
	}
	model := analytical.New(x86.Haswell)
	sim := hwsim.New(hwsim.HardwareConfig(x86.Haswell))
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"costmodel.BlockKey", 1, func() { _ = costmodel.BlockKey(b) }},
		{"deps.Build", 4, func() { _, _ = deps.Build(b, deps.Options{}) }},
		{"perturb.Sample", 4, func() { p.Sample(rng, preserve) }},
		{"analytical.Predict", 4, func() { model.Predict(b) }},
		{"hwsim.Throughput", 5, func() { sim.Throughput(b) }},
	} {
		if got := testing.AllocsPerRun(200, c.f); got != c.want {
			t.Errorf("%s: %v allocs per call, want %v", c.name, got, c.want)
		}
	}
}
