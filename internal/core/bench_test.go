package core_test

import (
	"fmt"
	"testing"

	"elpc/internal/core"
	"elpc/internal/gen"
)

// BenchmarkMaxFrameRateWithBudget times the rate–delay DP at the sizes a
// plan-cold front solves (Suite20 cases 10–12): one op is the unconstrained
// solve plus one solve per budget of the 8-point ladder FrontBudgets builds,
// infeasible budgets included, on one reused SolveContext.
func BenchmarkMaxFrameRateWithBudget(b *testing.B) {
	for _, id := range []int{10, 11, 12} {
		p, err := gen.Suite20()[id-1].Build()
		if err != nil {
			b.Fatal(err)
		}
		budgets, err := core.FrontBudgets(p, 8, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("case%d", id), func(b *testing.B) {
			sc := core.NewSolveContext()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sc.MaxFrameRateWithBudget(p, core.TradeoffOptions{}); err != nil {
					b.Fatal(err)
				}
				for _, budget := range budgets {
					_, _ = sc.MaxFrameRateWithBudget(p, core.TradeoffOptions{DelayBudgetMs: budget})
				}
			}
		})
	}
}
