package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/lineio"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// sweep-scaleout: about a thousand small seed-varied simulate and wctt
// specs on meshes of 2..8, run through sweep.Coordinator with jobs() worker
// processes, streamed through JSONLSink with a checkpoint and merged into
// spec order with MergeJSONL. Each scenario costs a few milliseconds, so
// per-task dispatch, the worker wire, the sink and the checkpoint dominate.

// scaleoutSpecs generates the grid from the seed. Mesh size, mode and
// message count follow the grid index, so every seed asks for the same
// amount of work; the seed draws the designs, traffic seeds, hotspot
// targets and injection rates, and the order the grid runs in.
func scaleoutSpecs(cfg config) []scenario.Spec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := 1000
	if cfg.Tiny {
		n = 24
	}
	designs := []network.Design{network.DesignRegular, network.DesignWaWWaP}
	specs := make([]scenario.Spec, n)
	for i := range specs {
		size := 2 + i%7
		s := scenario.Spec{
			Name:  fmt.Sprintf("scaleout/%d", i),
			Width: size, Height: size, Design: designs[rng.Intn(2)],
		}
		messages := 400 + i*37%1000
		switch i % 10 {
		case 0, 1, 2:
			s.Mode = scenario.ModeWCTT
		case 3, 4, 5:
			s.Mode, s.Seed = scenario.ModeSimulate, rng.Int63n(1<<30)
			s.Traffic = scenario.Traffic{Pattern: "hotspot", Messages: messages,
				Target: mesh.Node{X: rng.Intn(size), Y: rng.Intn(size)}}
		default:
			s.Mode, s.Seed = scenario.ModeSimulate, rng.Int63n(1<<30)
			s.Traffic = scenario.Traffic{Pattern: "uniform", Rate: 20 + rng.Intn(60), Messages: messages}
		}
		specs[i] = s
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// coordinator is the multi-process executor of the workload: jobs() copies
// of this binary serving the sweep worker protocol.
func coordinator() (*sweep.Coordinator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &sweep.Coordinator{
		Command: []string{exe},
		Env:     append(os.Environ(), childEnv+"="+roleWorker),
		Procs:   jobs(),
		Stderr:  os.Stderr,
	}, nil
}

// tracedSink times every Put on a lane. Puts arrive from the coordinator's
// slot goroutines; the mutex keeps the lane single-writer.
type tracedSink struct {
	mu    sync.Mutex
	inner sweep.ResultSink
	l     *lane
	puts  *agg
}

func (t *tracedSink) Put(i int, r scenario.Result, err error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t0 := t.l.now()
	perr := t.inner.Put(i, r, err)
	t.puts.lap(t.l, t0, 1)
	return perr
}

// scaleoutPass streams the grid through the coordinator into a JSONL
// stream with a checkpoint and merges it into spec order at outPath.
func scaleoutPass(ctx context.Context, specs []scenario.Spec, outPath string, l *lane, req int64) error {
	root := l.begin("bench.pass", -1, req)
	defer l.end(root)
	coord, err := coordinator()
	if err != nil {
		return err
	}
	ckPath := outPath + ".ckpt"
	sp := l.begin("sweep.open", root, req)
	key, err := sweep.GridKey(specs)
	if err != nil {
		return err
	}
	outF, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer outF.Close()
	ckF, err := os.Create(ckPath)
	if err != nil {
		return err
	}
	defer ckF.Close()
	ck, err := sweep.NewCheckpointWriter(ckF, len(specs), key)
	if err != nil {
		return err
	}
	var sink sweep.ResultSink = sweep.NewJSONLSink(outF, ck)
	l.end(sp)
	sp = l.begin("sweep.execute", root, req)
	if l != nil {
		sink = &tracedSink{inner: sink, l: l, puts: l.agg(sp, "sweep.sink_put")}
	}
	err = sweep.Stream(ctx, sweep.Tasks(specs), sweep.Options{}, coord, sink)
	l.end(sp)
	if err != nil {
		return err
	}
	sp = l.begin("sweep.merge", root, req)
	if err := outF.Close(); err != nil {
		return err
	}
	if err := ckF.Close(); err != nil {
		return err
	}
	err = sweep.MergeJSONL(outPath, len(specs))
	l.end(sp)
	return err
}

// readMerged returns the raw result of every record of a merged stream and
// the number of failed records.
func readMerged(path string, total int) ([][]byte, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	out := make([][]byte, 0, total)
	var failed int64
	sc := lineio.NewScanner(f)
	for sc.Scan() {
		var rec sweep.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, 0, err
		}
		if rec.Index != len(out) {
			return nil, 0, fmt.Errorf("%w: merged record %d has index %d", errMismatch, len(out), rec.Index)
		}
		if rec.Error != "" {
			failed++
		}
		out = append(out, rec.Result)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if len(out) != total {
		return nil, 0, fmt.Errorf("%w: merged stream holds %d records, want %d", errMismatch, len(out), total)
	}
	return out, failed, nil
}

// spawnWorker starts one worker process, waits for its answer to a ping
// and shuts it down: the cost the coordinator pays per worker.
func spawnWorker() (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+roleWorker)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	werr := lineio.WriteLine(stdin, []byte(`{"id":1,"verb":"ping"}`))
	if werr == nil {
		_, werr = bufio.NewReader(stdout).ReadSlice('\n')
	}
	took := time.Since(t0)
	stdin.Close()
	if err := cmd.Wait(); err != nil && werr == nil {
		werr = err
	}
	return took, werr
}

func runSweepScaleout(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{Layers: layers{}, Aliases: map[string]string{"ops_per_s": "scenarios_per_s"}}
	e := e2e{opName: "scenarios"}
	// Set-up: expand the grid, then spawn and handshake the workers with a
	// two-task sweep.
	var specs []scenario.Spec
	runtime.GC() // collect the benchmark's own garbage before measuring
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		specs = scaleoutSpecs(cfg)
		if _, err := sweep.GridKey(specs); err != nil {
			return nil, err
		}
		coord, err := coordinator()
		if err != nil {
			return nil, err
		}
		probe := []scenario.Spec{
			{Name: "probe/0", Mode: scenario.ModeWCTT, Width: 2, Height: 2},
			{Name: "probe/1", Mode: scenario.ModeWCTT, Width: 2, Height: 3},
		}
		c := sweep.NewCollector(len(probe))
		if err := sweep.Stream(ctx, sweep.Tasks(probe), sweep.Options{}, coord, c); err != nil {
			return nil, err
		}
		if err := c.Err(); err != nil {
			return nil, err
		}
		e.setups = append(e.setups, time.Since(t0))
	}

	var want [][]byte
	var traced []time.Duration
	var lanes []*lane
	settle()
	for sec := newSection(cfg); sec.next(); {
		for _, trace := range []bool{false, true} {
			if trace && !cfg.Trace {
				continue
			}
			var l *lane
			if trace {
				l = newLane(time.Now())
			}
			path := filepath.Join(cfg.WorkDir, "out.jsonl")
			resetPeakRSS()
			t0 := time.Now()
			err := scaleoutPass(ctx, specs, path, l, int64(len(e.passes)))
			wall := time.Since(t0)
			if err != nil {
				return nil, err
			}
			got, failed, err := readMerged(path, len(specs))
			if err != nil {
				return nil, err
			}
			out.Attempted += int64(len(specs))
			out.Failed += failed
			if trace {
				traced = append(traced, wall)
				lanes = append(lanes, l)
			} else {
				e.passes = append(e.passes, wall)
				e.rss = append(e.rss, selfPeakMB()+childrenPeakMB())
			}
			if want == nil {
				want = got
			} else if err := sameResults("sweep-scaleout pass", want, got); err != nil {
				return nil, err
			}
		}
	}

	// One goroutine: the execution times are each scenario's cost on an
	// otherwise idle CPU, the useful work the workers' capacity is
	// measured against.
	ref, took, err := executeAll(specs, 1)
	if err != nil {
		return nil, err
	}
	if err := sameResults("sweep-scaleout vs scenario.Execute", ref, want); err != nil {
		return nil, err
	}
	e.opsPerPass = float64(len(specs))
	out.EndToEnd = e.metrics()
	out.Digest = digest(want...)

	if cfg.Trace {
		l := out.Layers
		var execTotal time.Duration
		byMode := map[string][2]float64{}
		for i, s := range specs {
			execTotal += took[i]
			m := byMode[s.Mode.String()]
			byMode[s.Mode.String()] = [2]float64{m[0] + 1, m[1] + float64(took[i])}
		}
		for mode, m := range byMode {
			l["scenario.execute_ns."+mode] = m[1] / m[0]
		}
		capacity := float64(median(e.passes)) * float64(jobs())
		l["sweep.busy_frac"] = float64(execTotal) / capacity
		l["sweep.overhead_ns_per_task"] = (capacity - float64(execTotal)) / float64(len(specs))
		l["sweep.sink_put_ns"] = meanNS(lanes, "sweep.sink_put")
		l["sweep.merge_ns"] = meanNS(lanes, "sweep.merge")
		var spawns []time.Duration
		for i := 0; i < setupReps; i++ {
			d, err := spawnWorker()
			if err != nil {
				return nil, err
			}
			spawns = append(spawns, d)
		}
		l["sweep.spawn_ns"] = float64(median(spawns))
		l["network.build_ns"] = buildNS(specs)
		traceLayers(l, lanes, len(traced), median(traced), median(e.passes))
		if err := dumpSpans(cfg, lanes); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildNS is the mean cost of network.New over the distinct networks the
// cycle-accurate specs run on — what each worker pays once per network.
func buildNS(specs []scenario.Spec) float64 {
	seen := map[network.Config]bool{}
	var took time.Duration
	for _, s := range specs {
		if s.Mode != scenario.ModeSimulate {
			continue
		}
		cfg := simConfig(s)
		if seen[cfg] {
			continue
		}
		seen[cfg] = true
		t0 := time.Now()
		net, err := network.New(cfg)
		took += time.Since(t0)
		if err == nil {
			net.Close()
		}
	}
	return ratio(float64(took), float64(len(seen)))
}
