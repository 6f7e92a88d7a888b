package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/flit"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// sim-loadcurve: a ModeLoadCurve sweep of uniform-random traffic over the
// rate ladder 25..500 msgs/node/kcycle on an 8x8 mesh, for the regular and
// the WaW+WaP design, run through the in-process sweep executor. Almost all
// host time is in the cycle engine.

// loadCurveSpecs generates the workload's specs from the seed.
func loadCurveSpecs(cfg config) []scenario.Spec {
	size, rates, warmup, measure := 8, []int{25, 50, 100, 150, 200, 300, 400, 500}, 2_000, 10_000
	if cfg.Tiny {
		size, rates, warmup, measure = 4, []int{50, 400}, 200, 1_000
	}
	seed := rand.New(rand.NewSource(cfg.Seed)).Int63n(1<<31) + 1
	var specs []scenario.Spec
	for _, d := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		specs = append(specs, scenario.Spec{
			Name:   fmt.Sprintf("loadcurve/%dx%d/%v", size, size, d),
			Mode:   scenario.ModeLoadCurve,
			Width:  size,
			Height: size,
			Design: d,
			Seed:   seed,
			Traffic: scenario.Traffic{
				Pattern:       "uniform",
				Rates:         rates,
				WarmupCycles:  warmup,
				MeasureCycles: measure,
			},
		})
	}
	return specs
}

func runSimLoadCurve(ctx context.Context, cfg config) (*outcome, error) {
	specs := loadCurveSpecs(cfg)
	out := &outcome{Layers: layers{}, Aliases: map[string]string{"ops_per_s": "sim_cycles_per_s"}}
	e := e2e{opName: "simulated cycles"}
	// Set-up is what a user pays before the first simulated cycle:
	// validating the specs and building one network per design.
	runtime.GC() // collect the benchmark's own garbage before measuring
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for _, s := range specs {
			net, err := network.New(simConfig(s))
			if err != nil {
				return nil, err
			}
			net.Close()
		}
		e.setups = append(e.setups, time.Since(t0))
	}

	var want [][]byte
	var traced []time.Duration
	var lanes []*lane
	var tracedCount simCounters
	settle()
	for sec := newSection(cfg); sec.next(); {
		resetPeakRSS()
		t0 := time.Now()
		res, err := sweep.Run(ctx, specs, sweep.Options{})
		e.passes = append(e.passes, time.Since(t0))
		e.rss = append(e.rss, selfPeakMB())
		out.Attempted += int64(len(specs))
		if err != nil {
			return nil, fmt.Errorf("sim-loadcurve: %w", err)
		}
		got, err := marshalAll(res)
		if err != nil {
			return nil, err
		}
		if want == nil {
			want = got
		} else if err := sameResults("sim-loadcurve pass", want, got); err != nil {
			return nil, err
		}
		if !cfg.Trace {
			continue
		}
		// The traced pass replays the same specs through the public
		// network and traffic calls and must reproduce the untraced
		// results exactly.
		t0 = time.Now()
		got, c, passLanes, err := replayAll(specs, true)
		traced = append(traced, time.Since(t0))
		if err != nil {
			return nil, err
		}
		lanes = append(lanes, passLanes...)
		tracedCount.add(c)
		if err := sameResults("sim-loadcurve traced replay", want, got); err != nil {
			return nil, err
		}
	}

	// The untraced replay after timing counts the simulated cycles and
	// checks that the public-call replay reproduces the executor's results;
	// on a traced run its statistics must also equal the traced passes'.
	got, c, _, err := replayAll(specs, false)
	if err != nil {
		return nil, err
	}
	if err := sameResults("sim-loadcurve replay", want, got); err != nil {
		return nil, err
	}
	if cfg.Trace && tracedCount != scaleCounters(c, len(traced)) {
		return nil, fmt.Errorf("%w: sim-loadcurve traced statistics %+v differ from %d x %+v", errMismatch, tracedCount, len(traced), c)
	}
	e.opsPerPass = float64(c.cycles)
	out.EndToEnd = e.metrics()
	out.Digest = digest(want...)
	out.Notes = append(out.Notes, fmt.Sprintf("per pass: %d simulated cycles, %d stepped, %d flit hops, %d messages sent",
		c.cycles, c.steps, c.hops, c.sends))

	if cfg.Trace {
		l := out.Layers
		passes := float64(len(traced))
		l["network.steps"] = float64(tracedCount.steps) / passes
		l["network.cycles_leapt"] = float64(tracedCount.cycles-tracedCount.steps) / passes
		l["network.flit_hops"] = float64(tracedCount.hops) / passes
		l["network.step_ns"] = meanNS(lanes, "network.step")
		_, stepNS := callStats(lanes, "network.step")
		l["network.ns_per_flit_hop"] = ratio(float64(stepNS), float64(tracedCount.hops))
		l["network.send_ns"] = meanNS(lanes, "network.send")
		l["network.reset_ns"] = meanNS(lanes, "network.reset")
		l["network.build_ns"] = meanNS(lanes, "network.build")
		l["traffic.tick_ns"] = meanNS(lanes, "traffic.tick")
		l["scenario.execute_ns.load-curve"] = meanNS(lanes, "scenario.execute.load-curve")
		traceLayers(l, lanes, len(traced), median(traced), median(e.passes))
		if err := dumpSpans(cfg, lanes); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replayAll replays every spec on its own goroutine, as the executor runs
// them; on a traced replay each goroutine records on its own lane.
func replayAll(specs []scenario.Spec, traced bool) ([][]byte, simCounters, []*lane, error) {
	epoch := time.Now()
	lanes := make([]*lane, len(specs))
	results := make([]scenario.Result, len(specs))
	counts := make([]simCounters, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		if traced {
			lanes[i] = newLane(epoch)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := lanes[i]
			root := l.begin("bench.lane", -1, int64(i))
			sp := l.begin("scenario.execute."+s.Mode.String(), root, int64(i))
			results[i], counts[i], errs[i] = replayLoadCurve(s, l, sp, int64(i))
			l.end(sp)
			l.end(root)
		}()
	}
	wg.Wait()
	var c simCounters
	for i := range specs {
		if errs[i] != nil {
			return nil, c, nil, errs[i]
		}
		c.add(counts[i])
	}
	got, err := marshalAll(results)
	return got, c, lanes, err
}

// simCounters are the simulator statistics of a replay; they must repeat
// exactly.
type simCounters struct{ steps, cycles, hops, sends int64 }

func (c *simCounters) add(o simCounters) {
	c.steps += o.steps
	c.cycles += o.cycles
	c.hops += o.hops
	c.sends += o.sends
}

func scaleCounters(c simCounters, k int) simCounters {
	n := int64(k)
	return simCounters{c.steps * n, c.cycles * n, c.hops * n, c.sends * n}
}

// simConfig is the network a cycle-accurate spec runs on: the default
// platform for its mesh, topology and design.
func simConfig(s scenario.Spec) network.Config {
	d, _ := s.Dim()
	cfg := network.DefaultConfig(d, s.Design)
	cfg.Shards = s.Shards
	cfg.Topo, _ = s.TopoSpec()
	return cfg
}

// identity is the Result header scenario.Execute fills for a spec.
func identity(s scenario.Spec) (scenario.Result, mesh.Dim, error) {
	if err := s.Validate(); err != nil {
		return scenario.Result{}, mesh.Dim{}, err
	}
	d, _ := s.Dim()
	res := scenario.Result{Name: s.Name, Mode: s.Mode.String(), Dim: d.String(), Design: s.Design.String()}
	if ts, _ := s.TopoSpec(); ts.Kind != mesh.TopoMesh {
		res.Topology = ts.String()
	}
	return res, d, nil
}

// replayLoadCurve reproduces a ModeLoadCurve scenario with public calls
// only — network.New, Tick, Send, Step, the drain loop and Reset — timing
// each layer on lane l under span parent (l may be nil).
func replayLoadCurve(s scenario.Spec, l *lane, parent int, req int64) (scenario.Result, simCounters, error) {
	var c simCounters
	res, d, err := identity(s)
	if err != nil {
		return res, c, err
	}
	res.Seed = s.Seed
	t := s.Traffic
	payload := t.PayloadBits
	if payload == 0 {
		payload = traffic.RequestPayloadBits
	}
	sp := l.begin("network.build", parent, req)
	net, err := network.New(simConfig(s))
	l.end(sp)
	if err != nil {
		return res, c, err
	}
	defer net.Close()
	lc := &scenario.LoadCurveResult{WarmupCycles: t.WarmupCycles, MeasureCycles: t.MeasureCycles}
	for i, rate := range t.Rates {
		if i > 0 {
			sp := l.begin("network.reset", parent, req)
			net.Reset()
			l.end(sp)
		}
		pt, err := replayPoint(net, d, s.Seed, rate, t.WarmupCycles, t.MeasureCycles, payload, l, parent, req, &c)
		if err != nil {
			return res, c, fmt.Errorf("load-curve rate %d: %w", rate, err)
		}
		lc.Points = append(lc.Points, pt)
		c.cycles += int64(net.Cycle())
		c.hops += flitHops(net)
	}
	res.LoadCurve = lc
	return res, c, nil
}

// replayPoint runs one load-curve rate: warmup and measurement windows of
// sustained injection, then a drain of at most one measurement window.
func replayPoint(net *network.Network, d mesh.Dim, seed int64, rate, warmup, measure, payload int,
	l *lane, parent int, req int64, c *simCounters) (scenario.LoadCurvePoint, error) {
	gen, err := traffic.NewUniformRandom(d, seed, rate, payload, int(^uint32(0)>>1))
	if err != nil {
		return scenario.LoadCurvePoint{}, err
	}
	traffic.AttachNetworkPool(gen, net)
	var lat, netLat stats.Sampler
	var delivered, deliveredInWindow uint64
	start, stop := uint64(warmup), uint64(warmup+measure)
	net.DeliveryHook = func(msg *flit.Message, at uint64) {
		if at >= start && at < stop {
			deliveredInWindow++
		}
		if msg.CreatedAt < start {
			return
		}
		delivered++
		lat.AddUint(msg.DeliveredAt - msg.CreatedAt)
		netLat.AddUint(msg.DeliveredAt - msg.InjectedAt)
	}
	pt := l.begin("scenario.point", parent, req)
	tick, send, step := l.agg(pt, "traffic.tick"), l.agg(pt, "network.send"), l.agg(pt, "network.step")
	offered := 0
	now := l.now()
	for cycle := 0; cycle < warmup+measure; cycle++ {
		msgs := gen.Tick(net.Cycle())
		now = tick.lap(l, now, 1)
		for _, msg := range msgs {
			if _, err := net.Send(msg); err != nil {
				return scenario.LoadCurvePoint{}, err
			}
			if cycle >= warmup {
				offered++
			}
		}
		if len(msgs) > 0 {
			now = send.lap(l, now, int64(len(msgs)))
			c.sends += int64(len(msgs))
		}
		net.Step()
		c.steps++
		now = step.lap(l, now, 1)
	}
	// The drain: what Network.RunUntilDrained does, stepped here so the
	// stepped and the leapt cycles can be counted apart.
	end := net.Cycle() + uint64(measure)
	for net.Cycle() < end && !net.Drained() {
		if net.Leapable() {
			net.LeapTo(end)
			break
		}
		net.Step()
		c.steps++
		now = step.lap(l, now, 1)
	}
	l.end(pt)
	return scenario.LoadCurvePoint{
		RatePerMil:         rate,
		Offered:            offered,
		Delivered:          delivered,
		Throughput:         float64(deliveredInWindow) / float64(d.Nodes()) / float64(measure) * 1000,
		MinLatency:         lat.Min(),
		MeanLatency:        lat.Mean(),
		MaxLatency:         lat.Max(),
		StdDevLatency:      lat.StdDev(),
		MeanNetworkLatency: netLat.Mean(),
		MaxNetworkLatency:  netLat.Max(),
		Drained:            net.Drained(),
	}, nil
}

// flitHops sums the flits every router output has forwarded.
func flitHops(net *network.Network) int64 {
	var n uint64
	for _, r := range net.Topology().RouterDim().AllNodes() {
		rt := net.Router(r)
		for _, dir := range mesh.Directions {
			n += rt.Forwarded(dir)
		}
	}
	return int64(n)
}

// marshalAll encodes results the way every sink and the CLI do.
func marshalAll(rs []scenario.Result) ([][]byte, error) {
	out := make([][]byte, len(rs))
	for i, r := range rs {
		raw, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = raw
	}
	return out, nil
}

// sameResults reports the first result that differs byte for byte.
func sameResults(what string, want, got [][]byte) error {
	if len(want) != len(got) {
		return fmt.Errorf("%w: %s: %d results, want %d", errMismatch, what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			return fmt.Errorf("%w: %s: result %d differs:\n got %s\nwant %s", errMismatch, what, i, got[i], want[i])
		}
	}
	return nil
}
