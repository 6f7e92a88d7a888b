package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// analysis-grid: cold ModeWCTT grids on meshes 8..64 (step 8) and on the
// 4-core concentrated mesh at 16/32/64, for both designs, plus ModeWCETMap
// at 32x32 and 64x64 for two EEMBC kernels. Every pass runs in a fresh
// process, because a CLI user pays the cold model, engine and memo caches
// on every invocation. All time is in analysis and wcet.

// gridSpecs generates the grid from the seed: the seed picks the two
// kernels and the order the grid runs in.
func gridSpecs(cfg config) []scenario.Spec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	meshes, cmeshes, maps, nKernels := []int{8, 16, 24, 32, 40, 48, 56, 64}, []int{16, 32, 64}, []int{32, 64}, 2
	if cfg.Tiny {
		meshes, cmeshes, maps, nKernels = []int{4, 8}, []int{8}, []int{8}, 1
	}
	suite := workload.EEMBCAutomotive()
	var kernels []string
	for _, k := range rng.Perm(len(suite))[:nKernels] {
		kernels = append(kernels, suite[k].Name)
	}
	designs := []network.Design{network.DesignRegular, network.DesignWaWWaP}
	var specs []scenario.Spec
	add := func(mode scenario.Mode, topo string, size int, d network.Design, kernel string) {
		specs = append(specs, scenario.Spec{
			Name: fmt.Sprintf("grid/%v/%s/%dx%d/%v/%s", mode, topo, size, size, d, kernel),
			Mode: mode, Topology: topo, Width: size, Height: size, Design: d, Workload: kernel,
		})
	}
	for _, d := range designs {
		for _, s := range meshes {
			add(scenario.ModeWCTT, "", s, d, "")
		}
		for _, s := range cmeshes {
			add(scenario.ModeWCTT, "cmesh", s, d, "")
		}
		for _, s := range maps {
			for _, k := range kernels {
				add(scenario.ModeWCETMap, "", s, d, k)
			}
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// gridReport is what a grid child prints.
type gridReport struct {
	Results []json.RawMessage         `json:"results"`
	Caches  scenario.SharedCacheStats `json:"caches"`
	// Kernel holds the analysis kernel counters the pass moved: all-pairs
	// runs, row sweeps, memo entries warmed.
	Kernel [3]uint64 `json:"kernel"`
	// Pairs counts the ordered node pairs the WCTT summaries covered.
	Pairs int64   `json:"pairs"`
	Lanes []*lane `json:"lanes,omitempty"`
}

// gridChild runs one cold grid pass: the specs arrive on stdin, the report
// leaves on stdout. The untraced pass runs the in-process sweep executor;
// the traced pass replays each scenario with public analysis and wcet calls,
// one lane per executor goroutine.
func gridChild(ctx context.Context, traced bool) error {
	raw, err := io.ReadAll(os.Stdin)
	if err != nil {
		return err
	}
	var specs []scenario.Spec
	if err := json.Unmarshal(raw, &specs); err != nil {
		return err
	}
	var rep gridReport
	k0, k1, k2 := analysis.KernelCounters()
	if traced {
		rep.Lanes, rep.Results, rep.Pairs, err = replayGrid(specs)
	} else {
		var res []scenario.Result
		if res, err = sweep.Run(ctx, specs, sweep.Options{}); err == nil {
			var enc [][]byte
			enc, err = marshalAll(res)
			for _, e := range enc {
				rep.Results = append(rep.Results, e)
			}
		}
	}
	if err != nil {
		return err
	}
	a, b, c := analysis.KernelCounters()
	rep.Kernel = [3]uint64{a - k0, b - k1, c - k2}
	rep.Caches = scenario.CacheStats()
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// replayGrid executes the specs on jobs() lanes with public calls only.
func replayGrid(specs []scenario.Spec) ([]*lane, []json.RawMessage, int64, error) {
	epoch := time.Now()
	results := make([]json.RawMessage, len(specs))
	errs := make([]error, len(specs))
	lanes := make([]*lane, jobs())
	var pairs atomic.Int64
	var next atomic.Int64
	models := &modelCache{m: map[analysis.Params]*modelEntry{}}
	var wg sync.WaitGroup
	for w := range lanes {
		l := newLane(epoch)
		lanes[w] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := l.begin("bench.lane", -1, int64(w))
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				s := specs[i]
				sp := l.begin("scenario.execute."+s.Mode.String(), root, int64(i))
				r, n, err := replayAnalytical(s, models, l, sp, int64(i))
				l.end(sp)
				if err == nil {
					results[i], err = json.Marshal(r)
				}
				errs[i] = err
				pairs.Add(n)
			}
			l.end(root)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, 0, fmt.Errorf("replay %s: %w", specs[i].Name, err)
		}
	}
	return lanes, results, pairs.Load(), nil
}

// modelCache builds each analytical model once, like the scenario layer's
// shared model cache, recording the build on the lane that pays for it.
type modelCache struct {
	mu sync.Mutex
	m  map[analysis.Params]*modelEntry
}

type modelEntry struct {
	once  sync.Once
	model *analysis.Model
	err   error
}

func (c *modelCache) get(p analysis.Params, l *lane, parent int, req int64) (*analysis.Model, error) {
	c.mu.Lock()
	e, ok := c.m[p]
	if !ok {
		e = &modelEntry{}
		c.m[p] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		sp := l.begin("analysis.model_build", parent, req)
		e.model, e.err = analysis.NewModel(p)
		l.end(sp)
	})
	return e.model, e.err
}

// replayAnalytical reproduces a ModeWCTT or ModeWCETMap scenario with public
// analysis and wcet calls; it also returns the node pairs a WCTT summary
// covered.
func replayAnalytical(s scenario.Spec, models *modelCache, l *lane, parent int, req int64) (scenario.Result, int64, error) {
	res, d, err := identity(s)
	if err != nil {
		return res, 0, err
	}
	switch s.Mode {
	case scenario.ModeWCTT:
		p := analysis.DefaultParams(d)
		p.Topo, _ = s.TopoSpec()
		m, err := models.get(p, l, parent, req)
		if err != nil {
			return res, 0, err
		}
		sp := l.begin("analysis.summarize", parent, req)
		sum, err := m.SummarizeOneFlitWCTT(s.Design)
		l.end(sp)
		if err != nil {
			return res, 0, err
		}
		res.WCTT = &scenario.WCTTResult{MaxCycles: sum.Max, MeanCycles: sum.Mean, MinCycles: sum.Min, Flows: sum.Flows}
		return res, int64(sum.Flows), nil
	case scenario.ModeWCETMap:
		res.Workload = s.Workload
		bench, err := workload.BenchmarkByName(s.Workload)
		if err != nil {
			return res, 0, err
		}
		sp := l.begin("wcet.engine", parent, req)
		eng, err := scenario.PlatformFor(d).Engine()
		l.end(sp)
		if err != nil {
			return res, 0, err
		}
		sp = l.begin("wcet.wcetmap", parent, req)
		vals, err := eng.WCETMap(s.Design, bench)
		l.end(sp)
		if err != nil {
			return res, 0, err
		}
		out := make([][]float64, d.Height)
		for y := range out {
			out[y] = make([]float64, d.Width)
		}
		for _, n := range d.AllNodes() {
			out[n.Y][n.X] = float64(vals[d.Index(n)])
		}
		res.WCETMap = out
		return res, 0, nil
	}
	return res, 0, fmt.Errorf("replay: mode %v is not analytical", s.Mode)
}

func runAnalysisGrid(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{Layers: layers{}}
	e := e2e{opName: "scenarios"}
	// Set-up: expand the grid and start a fresh process that answers.
	var specs []scenario.Spec
	runtime.GC() // collect the benchmark's own garbage before measuring
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		specs = gridSpecs(cfg)
		if _, _, err := spawn(roleHello, nil); err != nil {
			return nil, err
		}
		e.setups = append(e.setups, time.Since(t0))
	}

	var want [][]byte
	check := func(what string, rep gridReport) error {
		got := make([][]byte, len(rep.Results))
		for i, r := range rep.Results {
			got[i] = r
		}
		if want == nil {
			want = got
			return nil
		}
		return sameResults(what, want, got)
	}
	var traced []time.Duration
	var lanes []*lane
	var plain, tracedRep gridReport
	var kernel [3]uint64
	var pairs int64
	settle()
	for sec := newSection(cfg); sec.next(); {
		resetPeakRSS()
		run, err := spawnJSON(roleGrid, specs, &plain)
		out.Attempted += int64(len(specs))
		if err != nil {
			return nil, err
		}
		e.passes = append(e.passes, run.wall)
		e.rss = append(e.rss, selfPeakMB()+run.rssMB)
		if err := check("analysis-grid pass", plain); err != nil {
			return nil, err
		}
		if !cfg.Trace {
			continue
		}
		tracedRep = gridReport{}
		run, err = spawnJSON(roleGridTraced, specs, &tracedRep)
		if err != nil {
			return nil, err
		}
		traced = append(traced, run.wall)
		if err := check("analysis-grid traced replay", tracedRep); err != nil {
			return nil, err
		}
		// A child's lanes cover its code, not its process start and exit;
		// stretch them to the pass so that cost shows as benchmark time.
		for _, l := range tracedRep.Lanes {
			l.Spans[0].End = l.Spans[0].Start + int64(run.wall)
		}
		lanes = append(lanes, tracedRep.Lanes...)
		for i := range kernel {
			kernel[i] += tracedRep.Kernel[i]
		}
		pairs += tracedRep.Pairs
	}

	ref, _, err := executeAll(specs, jobs())
	if err != nil {
		return nil, err
	}
	if err := sameResults("analysis-grid vs scenario.Execute", ref, want); err != nil {
		return nil, err
	}
	e.opsPerPass = float64(len(specs))
	out.EndToEnd = e.metrics()
	out.Digest = digest(want...)

	if cfg.Trace {
		l := out.Layers
		n := float64(len(traced))
		l["scenario.execute_ns.wctt"] = meanNS(lanes, "scenario.execute.wctt")
		l["scenario.execute_ns.wcet-map"] = meanNS(lanes, "scenario.execute.wcet-map")
		m := plain.Caches.Models
		l["scenario.model_cache_hit_ratio"] = ratio(float64(m.Hits), float64(m.Hits+m.Misses))
		l["analysis.model_build_ns"] = meanNS(lanes, "analysis.model_build")
		l["analysis.summarize_ns"] = meanNS(lanes, "analysis.summarize")
		_, sumNS := callStats(lanes, "analysis.summarize")
		l["analysis.ns_per_pair"] = ratio(float64(sumNS), float64(pairs))
		l["analysis.kernel_runs"] = float64(kernel[0]) / n
		l["analysis.row_sweeps"] = float64(kernel[1]) / n
		l["analysis.memo_warmed"] = float64(kernel[2]) / n
		l["wcet.wcetmap_ns"] = meanNS(lanes, "wcet.wcetmap")
		eng := plain.Caches.Engines
		l["wcet.engine_cache_hit_ratio"] = ratio(float64(eng.Hits), float64(eng.Hits+eng.Misses))
		var topos []mesh.Topology
		for _, s := range specs {
			d, _ := s.Dim()
			ts, _ := s.TopoSpec()
			t, err := ts.Build(d)
			if err != nil {
				return nil, err
			}
			topos = append(topos, t)
		}
		l["mesh.walk_ns_per_hop"] = walkNSPerHop(topos, cfg.Seed)
		traceLayers(l, lanes, len(traced), median(traced), median(e.passes))
		if err := dumpSpans(cfg, lanes); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// walkNSPerHop times Topology.Walk over a seeded sample of endpoint pairs
// of each topology and returns the mean cost of one hop.
func walkNSPerHop(topos []mesh.Topology, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	var hops int64
	var took time.Duration
	for _, t := range topos {
		d := t.EndpointDim()
		pairs := make([][2]mesh.Node, 4096)
		for i := range pairs {
			pairs[i] = [2]mesh.Node{d.NodeAt(rng.Intn(d.Nodes())), d.NodeAt(rng.Intn(d.Nodes()))}
		}
		t0 := time.Now()
		for _, p := range pairs {
			_ = t.Walk(p[0], p[1], func(mesh.Hop) bool {
				hops++
				return true
			})
		}
		took += time.Since(t0)
	}
	return ratio(float64(took), float64(hops))
}
