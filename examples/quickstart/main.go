// Quickstart: explain a cost model's prediction for the paper's motivating
// example (Listing 1). COMET should identify the RAW dependency between
// the add and the mov — the true bottleneck of the block — as a faithful,
// high-coverage explanation.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/comet-explain/comet"
)

func main() {
	block := comet.MustParseBlock(`
		add rcx, rax
		mov rdx, rcx
		pop rbx`)

	// Any registered cost model resolves from a spec string; here, the
	// uiCA-like simulator on Haswell. rm.Epsilon carries the model's
	// recommended ε-ball radius.
	rm, err := comet.ResolveModelString("uica@hsw")
	if err != nil {
		log.Fatal(err)
	}

	cfg := comet.DefaultConfig()
	cfg.Epsilon = rm.Epsilon

	// The context-first request API: per-request options overlay the
	// explainer's configuration, and the context cancels long searches.
	expl, err := comet.NewExplainer(rm.Model, cfg).
		ExplainContext(context.Background(), block, comet.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("block:")
	fmt.Println(block)
	fmt.Printf("\n%s (spec %s) predicts %.2f cycles/iteration\n", rm.Model.Name(), rm.Spec, expl.Prediction)
	fmt.Printf("explanation: %s\n", expl.Features)
	fmt.Printf("precision %.2f, coverage %.2f, certified %v, %d model queries\n",
		expl.Precision, expl.Coverage, expl.Certified, expl.Queries)

	// The dependency graph behind the features.
	g, err := comet.BuildDependencyGraph(block)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndependency edges:")
	for _, e := range g.Edges {
		fmt.Println(" ", g.EdgeString(e))
	}
}
