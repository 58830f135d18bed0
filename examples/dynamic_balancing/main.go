// Dynamic load balancing: the paper's future-work direction, implemented
// as a third variant next to the paper's two. Adaptive ATDCA starts from
// equal shares — it is told nothing about the platform — and
// re-partitions between detection rounds from measured busy times
// whenever the busiest worker's time exceeds the least busy one's by more
// than 15% (a fixed threshold; below ~5% rebalancing thrashes on noise). Within one round it converges to the balance the
// WEA achieves only when the cycle-times are known and correct.
package main

import (
	"fmt"
	"log"

	hyperhet "repro"
)

func main() {
	cfg := hyperhet.SceneConfig{Lines: 256, Samples: 24, Bands: 32, Seed: 9}
	sc, err := hyperhet.GenerateScene(cfg)
	if err != nil {
		log.Fatal(err)
	}
	params := hyperhet.ScaledParams(hyperhet.DefaultParams(), cfg)
	params.Targets = 12
	net := hyperhet.FullyHeterogeneous()

	// Three variants, same platform, same scene.
	static, err := hyperhet.Run(net, hyperhet.ATDCA, hyperhet.Homo, sc.Cube, params)
	if err != nil {
		log.Fatal(err)
	}
	adaptive, err := hyperhet.Run(net, hyperhet.ATDCA, hyperhet.Adaptive, sc.Cube, params)
	if err != nil {
		log.Fatal(err)
	}
	oracle, err := hyperhet.Run(net, hyperhet.ATDCA, hyperhet.Hetero, sc.Cube, params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("ATDCA on the fully heterogeneous network (virtual seconds):")
	fmt.Printf("  equal shares (no platform knowledge)  %10.1f\n", static.WallTime)
	fmt.Printf("  adaptive     (no platform knowledge)  %10.1f\n", adaptive.WallTime)
	fmt.Printf("  WEA oracle   (knows every cycle-time) %10.1f\n", oracle.WallTime)

	fmt.Println("\nadaptive convergence (measured busy-time imbalance per round):")
	trace := adaptive.Adaptive
	for r, imb := range trace.Imbalance {
		marker := ""
		if trace.Rebalanced[r] {
			marker = fmt.Sprintf("  -> re-partitioned, %d rows moved", trace.MovedRows[r])
		}
		fmt.Printf("  round %2d: %6.2f%s\n", r, imb, marker)
	}
	fmt.Println("\nthe first round runs on equal shares and measures the speed spread;")
	fmt.Println("every round after that is WEA-grade balanced, with no prior knowledge.")
}
