// Command vqplan explains a query plan: it prints every candidate DAG the
// planner enumerates for the red-car query (Session.Explain), the canary
// profiling results (cost and F1 against the most general plan), and
// which plan was selected — the §4.3 machinery made visible. The
// Figure 9/10 suspect DAG is `vqbench -exp dag`.
//
// Usage:
//
//	vqplan [-seed N] [-target F]
package main

import (
	"flag"
	"fmt"
	"os"

	"vqpy"
)

func main() {
	seed := flag.Uint64("seed", 42, "seed")
	target := flag.Float64("target", 0.9, "planner accuracy target")
	flag.Parse()

	s := vqpy.NewSession(*seed)
	s.SetNoBurn(true)
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(*seed, 60))
	q := vqpy.NewQuery("RedCarPlanned").
		Use("car", vqpy.RedCar()).
		Where(vqpy.And(
			vqpy.P("car", vqpy.PropScore).Gt(0.5),
			vqpy.P("car", "color").Eq("red"),
		)).
		FrameOutput(vqpy.Sel("car", vqpy.PropTrackID))
	best, all, err := s.Explain(q, v, vqpy.WithAccuracyTarget(*target))
	if err != nil {
		fmt.Fprintf(os.Stderr, "vqplan: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%d candidate plans (accuracy target %.2f):\n\n", len(all), *target)
	for _, p := range all {
		marker := "   "
		if p == best {
			marker = ">> "
		}
		fmt.Printf("%s%s  est_cost=%.1fms  est_f1=%.3f\n%s\n", marker, p.Label, p.EstCostMS, p.EstF1, p)
	}
}
