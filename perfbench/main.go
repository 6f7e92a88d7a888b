// Command perfbench is the repository benchmark: one command that runs a
// named workload against the public APIs of the sweep, scenario and serve
// layers, checks every output for correctness, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a traced run).
//
//	perfbench --workload sim-loadcurve --seed 1 --seconds 10 --trace 0
//
// Inputs are generated from --seed before timing starts. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the lines before it are a human-readable report that
// records the environment and the sample count behind every percentile.
// See README.md in this directory for the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Tiny shrinks every workload's inputs to a smoke-test size.
	Tiny bool
	// WorkDir holds the scratch files a run writes (sweep streams and
	// checkpoints); it lives inside the checkout and is removed at the end.
	WorkDir string
	// SpanDir receives the traced run's span dump.
	SpanDir string
}

// runFunc runs one workload and returns its outcome. A returned error means
// the run could not complete or an output was wrong.
type runFunc func(ctx context.Context, cfg config) (*outcome, error)

// workloads maps each workload name to its driver.
var workloads = map[string]runFunc{
	"sim-loadcurve":  runSimLoadCurve,
	"analysis-grid":  runAnalysisGrid,
	"serve-mixed":    runServeMixed,
	"sweep-scaleout": runSweepScaleout,
}

// errMismatch marks a correctness failure: an output differed from its
// reference.
var errMismatch = errors.New("correctness mismatch")

func main() {
	if child := os.Getenv(childEnv); child != "" {
		os.Exit(runChild(child))
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.Seed, "seed", 1, "input-generation seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "length of the timed section in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.WorkDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for files the run writes")
	flag.StringVar(&cfg.SpanDir, "spandir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	flag.Parse()
	cfg.Trace = trace == 1
	run, ok := workloads[cfg.Workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.Workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(cfg.WorkDir), cfg.Workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.WorkDir = dir
	out, err := run(context.Background(), cfg)
	_ = os.RemoveAll(dir) // scratch only; a leftover directory is harmless
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errMismatch) {
			fmt.Println(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
		}
		os.Exit(1)
	}
	printReport(os.Stdout, cfg, out)
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printReport writes the human-readable report and then the result object
// as the last line.
func printReport(w *os.File, cfg config, out *outcome) {
	fmt.Fprintf(w, "env workload=%s seed=%d trace=%v seconds=%g %s\n",
		cfg.Workload, cfg.Seed, cfg.Trace, cfg.Seconds, environment())
	for _, n := range out.Notes {
		fmt.Fprintln(w, "note", n)
	}
	fmt.Fprintf(w, "digest %s\n", out.Digest)
	metrics := map[string]any{}
	list := out.EndToEnd
	if cfg.Trace {
		list = out.Layers.list()
	}
	for _, m := range list {
		line := fmt.Sprintf("metric %s %.6g %s", m.Name, m.Value, m.Unit)
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
		if alias := out.Aliases[m.Name]; alias != "" && !cfg.Trace {
			fmt.Fprintf(w, "metric %s %.6g %s (= %s)\n", alias, m.Value, m.Unit, m.Name)
		}
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	if !cfg.Trace {
		frac := 0.0
		if out.Attempted > 0 {
			frac = float64(out.Failed) / float64(out.Attempted)
		}
		fmt.Fprintf(w, "metric failed_frac %g ratio (%d of %d operations)\n", frac, out.Failed, out.Attempted)
	}
	res, _ := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": out.Attempted,
		"failed":    out.Failed,
		"metrics":   metrics,
	})
	fmt.Fprintln(w, string(res))
}

// environment records the hardware and toolchain every report is tied to.
func environment() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, cpu)
}

// dumpSpans writes a traced run's spans to SpanDir/<workload>.jsonl,
// replacing the previous traced run's.
func dumpSpans(cfg config, lanes []*lane) error {
	if err := os.MkdirAll(cfg.SpanDir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(cfg.SpanDir, cfg.Workload+".jsonl"), lanes)
}

// section paces the passes of a timed section of cfg.Seconds: it starts
// another pass only while one more pass as long as the last would end in
// time, so a run overshoots its length by little. The first pass always runs.
type section struct {
	end   time.Time
	begun time.Time
	runs  int
}

func newSection(cfg config) *section {
	return &section{end: time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))}
}

// next reports whether another pass runs, and starts its clock.
func (s *section) next() bool {
	now := time.Now()
	if s.runs > 0 && now.Add(now.Sub(s.begun)).After(s.end) {
		return false
	}
	s.runs++
	s.begun = now
	return true
}
