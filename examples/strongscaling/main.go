// Strong scaling: the Figure-5 view — how duration and energy respond to
// adding ranks at fixed problem sizes, including the IMe/ScaLAPACK
// crossover between dense and distributed deployments.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/perfmodel"
)

func main() {
	sweep, err := core.SweepCells(core.SweepKeys(), perfmodel.Params{Overlap: true}).Collect(&core.Evaluator{Runner: grid.New(0)})
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range cluster.PaperMatrixDims() {
		fmt.Printf("matrix %d×%d\n", n, n)
		fmt.Printf("  %-6s  %-22s  %-22s  %s\n", "ranks", "IMe", "ScaLAPACK", "speedup vs 144 (IMe/GE)")
		var baseIMe, baseGE float64
		for _, ranks := range cluster.PaperRankCounts() {
			im, err := sweep.Get(perfmodel.IMe, n, ranks, cluster.FullLoad)
			if err != nil {
				log.Fatal(err)
			}
			ge, err := sweep.Get(perfmodel.ScaLAPACK, n, ranks, cluster.FullLoad)
			if err != nil {
				log.Fatal(err)
			}
			if ranks == 144 {
				baseIMe, baseGE = im.DurationS, ge.DurationS
			}
			marker := " "
			if im.DurationS < ge.DurationS {
				marker = "← IMe faster"
			}
			fmt.Printf("  %-6d  %8.3fs %9.0fJ  %8.3fs %9.0fJ  %5.2f× / %5.2f×  %s\n",
				ranks, im.DurationS, im.TotalJ, ge.DurationS, ge.TotalJ,
				baseIMe/im.DurationS, baseGE/ge.DurationS, marker)
		}
		fmt.Println()
	}
	fmt.Println("ScaLAPACK wins the dense deployments; IMe wins once the per-rank")
	fmt.Println("share shrinks and ScaLAPACK's per-column pivoting latency dominates.")
}
