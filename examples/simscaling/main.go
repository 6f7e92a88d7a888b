// simscaling takes the cycle-accurate simulator beyond the paper's scale,
// mirroring examples/wcttscaling on the simulation side: where wcttscaling
// extends the analytical Table II to 32x32 meshes, simscaling runs the
// cycle-accurate uniform-random experiment on meshes from 8x8 (the paper's
// evaluation platform) up to 32x32, once on the serial active-set engine and
// once partitioned into row-stripe shards stepped concurrently (one shard
// per CPU by default).
//
// The table reports, per mesh size, the simulated cycles, the delivered
// messages and the simulation throughput of both engines in simulated
// cycles per second, plus the sharded speedup. The two runs must agree
// exactly — the sharded engine is byte-identical to the serial one, so the
// speedup column is the only difference sharding makes.
//
// Run with:
//
//	go run ./examples/simscaling
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/tablegen"
	"repro/internal/traffic"
)

// run drives a sustained uniform-random workload (60 messages per node at 30
// messages per node per kilocycle) through a fresh network with the given
// shard count and returns the network plus the wall-clock duration.
func run(d mesh.Dim, shards int) (*network.Network, time.Duration) {
	cfg := network.DefaultConfig(d, network.DesignWaWWaP)
	cfg.Shards = shards
	net := network.MustNew(cfg)
	gen, err := traffic.NewUniformRandom(d, 7, 30, traffic.CacheLinePayloadBits, 60*d.Nodes())
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if _, done := traffic.Drive(net, gen, 50_000_000); !done {
		log.Fatalf("%v shards=%d did not drain", d, shards)
	}
	return net, time.Since(start)
}

func main() {
	shards := runtime.GOMAXPROCS(0)
	fmt.Printf("Cycle-accurate scaling study — WaW+WaP, uniform random, %d shards on %d CPUs\n\n",
		shards, runtime.NumCPU())
	t := tablegen.New("Beyond the paper — cycle-accurate simulation from the paper's 8x8 to 32x32",
		"NxM", "cores", "cycles", "delivered", "mean lat", "serial Mcyc/s", "sharded Mcyc/s", "speedup")
	for _, size := range []int{8, 12, 16, 24, 32} {
		d := mesh.MustDim(size, size)
		serial, serialDur := run(d, 1)
		sharded, shardedDur := run(d, shards)
		// Sharding is execution policy: every observable must match exactly.
		if serial.Cycle() != sharded.Cycle() ||
			serial.TotalDeliveredMessages() != sharded.TotalDeliveredMessages() ||
			serial.AggregateLatency().Mean() != sharded.AggregateLatency().Mean() {
			log.Fatalf("%v: sharded run diverged from serial", d)
		}
		mcycPerSec := func(dur time.Duration) float64 {
			return float64(serial.Cycle()) / dur.Seconds() / 1e6
		}
		t.AddRow(d.String(), fmt.Sprintf("%d", d.Nodes()),
			fmt.Sprintf("%d", serial.Cycle()),
			fmt.Sprintf("%d", serial.TotalDeliveredMessages()),
			fmt.Sprintf("%.1f", serial.AggregateLatency().Mean()),
			// Three significant digits: large meshes run well below
			// 0.01 Mcyc/s, which a fixed two-decimal format prints as 0.00.
			fmt.Sprintf("%.3g", mcycPerSec(serialDur)),
			fmt.Sprintf("%.3g", mcycPerSec(shardedDur)),
			fmt.Sprintf("%.2fx", serialDur.Seconds()/shardedDur.Seconds()))
	}
	if err := t.Render(os.Stdout, tablegen.FormatText); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe sharded engine partitions the mesh into row stripes with per-shard active")
	fmt.Println("sets, pools and statistics, synchronized at a two-phase cycle barrier; results")
	fmt.Println("are byte-identical to the serial engine, so the speedup is free determinism-")
	fmt.Println("preserving parallelism. On a single-core machine the speedup settles near 1x.")
}
