package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// Note says what the value rests on (sample counts, medians of how many).
	Note string
}

// outcome is what a workload run reports.
type outcome struct {
	// Attempted and Failed count operations; a failed operation is one that
	// errored, was refused or was lost (never one that returned a wrong
	// value: that is a correctness mismatch and fails the whole run).
	Attempted, Failed int64
	// EndToEnd holds the untraced run's metrics, Layers the traced run's.
	EndToEnd []metric
	Layers   layers
	Notes    []string
	// Aliases gives end-to-end metrics their workload-specific names
	// (ops_per_s is sim_cycles_per_s on sim-loadcurve, and so on).
	Aliases map[string]string
	// Digest fingerprints the verified results; a traced and an untraced
	// run of one seed must agree on it.
	Digest string
}

// e2e collects the raw samples behind the end-to-end metrics every
// workload reports.
type e2e struct {
	// setups are repeated set-up times (server listening and answering a
	// ping, workers spawned and handshaken, and so on).
	setups []time.Duration
	// passes are the wall times of each pass over the workload's inputs.
	passes []time.Duration
	// opsPerPass counts the operations one pass completes, opName names
	// them; ops_per_s is the median pass's rate.
	opsPerPass float64
	opName     string
	// lat are per-operation latencies and blockP99 the 99th percentile of
	// each block of them; nil means the operation a caller waits on is the
	// pass itself, a block of one.
	lat      []time.Duration
	blockP99 []time.Duration
	latWhat  string
	// rss holds each pass's peak resident memory in MiB: the benchmark
	// process since the pass began plus the pass's largest child. The peak
	// over passes is steadier than their median: a garbage collector's
	// timing moves each pass's peak, the highest pass much less.
	rss []float64
}

func (e e2e) metrics() []metric {
	lat, p99s, what := e.lat, e.blockP99, e.latWhat
	if lat == nil {
		lat, p99s, what = e.passes, e.passes, "one pass"
	}
	return []metric{
		{"setup_s", "s", median(e.setups).Seconds(), fmt.Sprintf("median of %d set-ups", len(e.setups))},
		{"wall_s", "s", median(e.passes).Seconds(), fmt.Sprintf("median of %d passes%s", len(e.passes), passList(e.passes))},
		{"ops_per_s", "1/s", e.opsPerPass / median(e.passes).Seconds(), fmt.Sprintf("%.0f %s per pass", e.opsPerPass, e.opName)},
		{"p50_ms", "ms", millis(median(lat)), fmt.Sprintf("latency of %s, n=%d", what, len(lat))},
		// The tail is the median over blocks of each block's p99: a slow
		// spell of the host moves a few blocks, not the median block.
		{"p99_ms", "ms", millis(median(p99s)), fmt.Sprintf("median over %d blocks of the block p99 of %s, n=%d", len(p99s), what, len(lat))},
		{"peak_rss_mb", "MB", slices.Max(e.rss), fmt.Sprintf("peak over %d passes of this process plus the pass's largest child", len(e.rss))},
	}
}

// passList renders a short list of pass times for the report.
func passList(ps []time.Duration) string {
	if len(ps) > 32 {
		return ""
	}
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, " %.3f", p.Seconds())
	}
	return ":" + b.String()
}

// quantile is the exact nearest-rank q-quantile of the samples.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// beyond is the number of samples above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - max(1, int(math.Ceil(q*float64(n))))
}

func median(xs []time.Duration) time.Duration { return quantile(xs, 0.5) }

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// settle prepares a timed section: it collects the benchmark's own garbage,
// returns the freed memory to the system and restarts the peak-memory
// counter.
func settle() {
	debug.FreeOSMemory()
	resetPeakRSS()
}

// resetPeakRSS restarts the kernel's peak-resident-set counter of this
// process, so that the next selfPeakMB covers what runs after it.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// selfPeakMB is the peak resident set of this process since the last
// resetPeakRSS, in MiB.
func selfPeakMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// childrenPeakMB is the peak resident set of the largest child this process
// has waited for, in MiB.
func childrenPeakMB() float64 {
	var kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(kids.Maxrss) / 1024 // KiB on Linux
}

// digest fingerprints a sequence of verified result encodings.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// layerDef declares one per-layer metric of the traced run.
type layerDef struct{ Name, Unit, Better string }

// layerDefs is the per-layer metric set, in report order; BENCHMARK.json's
// per_layer list mirrors it (a self-test keeps the two in step). Every
// traced run prints all of them; a layer a workload does not cross reads 0.
var layerDefs = []layerDef{
	{"network.steps", "count", "lower"},
	{"network.cycles_leapt", "count", "higher"},
	{"network.flit_hops", "count", "lower"},
	{"network.step_ns", "ns", "lower"},
	{"network.ns_per_flit_hop", "ns", "lower"},
	{"network.send_ns", "ns", "lower"},
	{"network.reset_ns", "ns", "lower"},
	{"network.build_ns", "ns", "lower"},
	{"traffic.tick_ns", "ns", "lower"},
	{"scenario.execute_ns.wctt", "ns", "lower"},
	{"scenario.execute_ns.simulate", "ns", "lower"},
	{"scenario.execute_ns.load-curve", "ns", "lower"},
	{"scenario.execute_ns.wcet-map", "ns", "lower"},
	{"scenario.model_cache_hit_ratio", "ratio", "higher"},
	{"analysis.model_build_ns", "ns", "lower"},
	{"analysis.summarize_ns", "ns", "lower"},
	{"analysis.ns_per_pair", "ns", "lower"},
	{"analysis.kernel_runs", "count", "lower"},
	{"analysis.row_sweeps", "count", "lower"},
	{"analysis.memo_warmed", "count", "higher"},
	{"analysis.point_cold_ns", "ns", "lower"},
	{"analysis.point_warm_ns", "ns", "lower"},
	{"mesh.walk_ns_per_hop", "ns", "lower"},
	{"wcet.wcetmap_ns", "ns", "lower"},
	{"wcet.engine_cache_hit_ratio", "ratio", "higher"},
	{"sweep.spawn_ns", "ns", "lower"},
	{"sweep.sink_put_ns", "ns", "lower"},
	{"sweep.merge_ns", "ns", "lower"},
	{"sweep.busy_frac", "ratio", "higher"},
	{"sweep.overhead_ns_per_task", "ns", "lower"},
	{"serve.wctt.p50_us", "us", "lower"},
	{"serve.wctt.p99_us", "us", "lower"},
	{"serve.batch.p50_us", "us", "lower"},
	{"serve.batch.p99_us", "us", "lower"},
	{"serve.wcet.p50_us", "us", "lower"},
	{"serve.wcet.p99_us", "us", "lower"},
	{"serve.scenario.p50_us", "us", "lower"},
	{"serve.scenario.p99_us", "us", "lower"},
	{"serve.server_p50_us", "us", "lower"},
	{"serve.wait_us", "us", "lower"},
	{"serve.memo_hit_ratio", "ratio", "higher"},
	{"serve.coalesced", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"lineio.scan_ns_per_line", "ns", "lower"},
	{"self_ms.bench", "ms", "lower"},
	{"self_ms.scenario", "ms", "lower"},
	{"self_ms.network", "ms", "lower"},
	{"self_ms.traffic", "ms", "lower"},
	{"self_ms.analysis", "ms", "lower"},
	{"self_ms.wcet", "ms", "lower"},
	{"self_ms.sweep", "ms", "lower"},
	{"self_ms.serve", "ms", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead", "ratio", "lower"},
}

// layers holds the traced run's per-layer values by metric name.
type layers map[string]float64

// list renders every declared per-layer metric in order.
func (l layers) list() []metric {
	out := make([]metric, len(layerDefs))
	for i, d := range layerDefs {
		out[i] = metric{Name: d.Name, Unit: d.Unit, Value: l[d.Name]}
		// Percentiles carry the sample count they rest on.
		if verb, _, ok := strings.Cut(d.Name, ".p"); ok && strings.HasSuffix(d.Name, "_us") {
			out[i].Note = fmt.Sprintf("n=%.0f", l[verb+".samples"])
		}
	}
	return out
}
