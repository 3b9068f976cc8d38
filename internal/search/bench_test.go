package search_test

import (
	"testing"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/search"
	"funcytuner/internal/xrand"
)

// BenchmarkTechniqueSuggestObserve measures each technique's own
// decision cost over one whole K=1000 search: every Suggest and Observe
// a session makes, with no compile or run behind them. The pools are
// shaped like CloverLeaf's top-50 on Broadwell (12 modules of 50 ICC
// CVs), the driver asks for the whole remaining budget on each Suggest
// as the engine does, and the times come from the synthetic objective
// (about 6% +Inf), so ns/op is pure search overhead per campaign.
func BenchmarkTechniqueSuggestObserve(b *testing.B) {
	const (
		budget  = 1000
		modules = 12
		topX    = 50
	)
	space := flagspec.ICC()
	rng := xrand.NewFromString("bench/pools")
	pools := make([][]flagspec.CV, modules)
	for mi := range pools {
		pools[mi] = space.Sample(rng, topX)
	}
	for _, tc := range techniques {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tech, err := tc.make(search.Config{
					Pools:  pools,
					Budget: budget,
					Rng:    xrand.NewFromString("bench/technique/" + tc.name),
				})
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < budget; {
					batch := tech.Suggest(budget - k)
					if len(batch) == 0 {
						b.Fatalf("%s stopped after %d of %d evaluations", tc.name, k, budget)
					}
					for _, a := range batch {
						tech.Observe(k, a, objective(k, a))
						k++
					}
				}
			}
		})
	}
}
