package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/lineio"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// serve-mixed: an in-process serve.Server on a loopback TCP listener,
// loaded by jobs() connections. Each connection runs a closed loop with a
// fixed window of pipelined lines in flight, cycling through its own seeded
// pool of request lines: about 80% single wctt queries (8x8 and 16x16
// meshes and the 16x16 concentrated mesh), 15% batch lines of 64 tuples,
// 4% wcet queries and 1% small scenario specs. The shared model memo starts
// cold, so model builds and memo fills happen beside warm lookups.

// serveShape sizes the serve workload.
type serveShape struct {
	pool   int // request lines per connection, cycled
	window int // lines in flight per connection
	block  int // answered lines per wall_s sample
}

func shapeOf(cfg config) serveShape {
	if cfg.Tiny {
		return serveShape{pool: 400, window: 4, block: 64}
	}
	return serveShape{pool: 1 << 15, window: 4, block: 4096}
}

// Verbs in wire order; per-verb latencies are indexed by these, and a
// traced line is a span named after its verb.
var (
	serveVerbs = []string{"wctt", "batch", "wcet", "scenario"}
	verbSpans  = []string{"serve.wctt", "serve.batch", "serve.wcet", "serve.scenario"}
)

const (
	verbWCTT = iota
	verbBatch
	verbWCET
	verbScenario
)

// target is a (topology, mesh) a query runs on.
type target struct {
	topo string
	size int
}

// poolLine is one pre-encoded request. The pool is all the benchmark keeps
// in memory during the window beside the answers, so that its own heap
// disturbs the server's garbage collector as little as possible; the check
// after the window decodes the line again.
type poolLine struct {
	line []byte
	verb int
	id   int64
}

// servePools generates every connection's request pool from the seed.
func servePools(cfg config, conns int) [][]poolLine {
	rng := rand.New(rand.NewSource(cfg.Seed))
	shape := shapeOf(cfg)
	suite := workload.EEMBCAutomotive()
	kernels := []string{suite[rng.Intn(len(suite))].Name, suite[rng.Intn(len(suite))].Name}
	designs := []string{"regular", "waw+wap"}
	wcttTargets := []target{{"", 8}, {"", 8}, {"", 16}, {"", 16}, {"cmesh", 16}}
	meshTargets := []target{{"", 8}, {"", 16}}
	if cfg.Tiny {
		wcttTargets, meshTargets = []target{{"", 4}, {"cmesh", 4}}, []target{{"", 4}}
	}
	node := func(size int) serve.Coord { return serve.Coord{X: rng.Intn(size), Y: rng.Intn(size)} }
	pair := func(size int) (serve.Coord, serve.Coord) {
		for {
			a, b := node(size), node(size)
			if a != b {
				return a, b
			}
		}
	}
	pools := make([][]poolLine, conns)
	for c := range pools {
		pool := make([]poolLine, shape.pool)
		for i := range pool {
			p := &pool[i]
			p.id = int64(c)<<32 | int64(i+1)
			req := serve.Request{ID: p.id, Design: designs[rng.Intn(2)]}
			switch r := rng.Float64(); {
			case r < 0.80:
				t := wcttTargets[rng.Intn(len(wcttTargets))]
				src, dst := pair(t.size)
				p.verb = verbWCTT
				req.Op, req.Topology, req.Width, req.Height = "wctt", t.topo, t.size, t.size
				req.Src, req.Dst = &src, &dst
				if rng.Intn(4) == 0 {
					req.PayloadBits = traffic.CacheLinePayloadBits
				}
			case r < 0.95:
				t := meshTargets[rng.Intn(len(meshTargets))]
				p.verb = verbBatch
				req.Op, req.Width, req.Height = "batch", t.size, t.size
				q := []byte{'['}
				for k := 0; k < 64; k++ {
					src, dst := pair(t.size)
					if k > 0 {
						q = append(q, ',')
					}
					q = fmt.Appendf(q, "[%d,%d,%d,%d]", src.X, src.Y, dst.X, dst.Y)
				}
				req.Queries = append(q, ']')
			case r < 0.99:
				t := meshTargets[rng.Intn(len(meshTargets))]
				core := node(t.size)
				p.verb = verbWCET
				req.Op, req.Width, req.Height = "wcet", t.size, t.size
				req.Core, req.Workload = &core, kernels[rng.Intn(2)]
			default:
				size := 3 + rng.Intn(2)
				d, _ := scenario.ParseDesign(req.Design)
				p.verb = verbScenario
				req.Op, req.Design = "scenario", ""
				req.Spec = &scenario.Spec{
					Name: fmt.Sprintf("serve/%d/%d", c, i), Mode: scenario.ModeSimulate,
					Width: size, Height: size, Design: d, Seed: rng.Int63n(1 << 30),
					Traffic: scenario.Traffic{Pattern: "uniform", Rate: 20 + rng.Intn(40), Messages: 20 + rng.Intn(20)},
				}
			}
			line, err := json.Marshal(&req)
			if err != nil {
				panic(err) // every field is a plain value: a bug alone can fail here
			}
			p.line = append(line, '\n')
		}
		pools[c] = pool
	}
	return pools
}

// serveRun is what one serve window measured; a serve child prints it.
type serveRun struct {
	Setups []time.Duration `json:"setups"`
	Blocks []time.Duration `json:"blocks"`
	// BlockP99 holds each block's 99th-percentile line latency.
	BlockP99 []time.Duration  `json:"block_p99"`
	Busy     time.Duration    `json:"busy"`
	Sent     int64            `json:"sent"`
	Answered int64            `json:"answered"`
	Failed   int64            `json:"failed"`
	Digest   string           `json:"digest"`
	Layers   layers           `json:"layers"`
	Self     map[string]int64 `json:"self,omitempty"`
	LaneNS   int64            `json:"lane_ns,omitempty"`
	RSS      float64          `json:"rss_mb"`
	// Lat holds every line's client latency for the in-process run.
	Lat []time.Duration `json:"-"`
}

// connStats is one connection's record of the window.
type connStats struct {
	sent, answered, failed int64
	// lat holds each verb's line latencies in nanoseconds, saturating at
	// about 4.3 s: four bytes a line keep the client's heap small.
	lat    [4][]uint32
	blocks []time.Duration
	// blockLat collects the current block's line latencies; blockP99 holds
	// each finished block's 99th percentile.
	blockLat []time.Duration
	blockP99 []time.Duration
	// answers holds, per pool line, the first response body after the id,
	// which every later answer to the line must repeat.
	answers [][]byte
}

// serveWindow runs the whole serve workload in this process: set-up, a
// timed window of cfg.Seconds, and the correctness check of every answer.
func serveWindow(ctx context.Context, cfg config, traced bool) (*serveRun, error) {
	shape := shapeOf(cfg)
	pools := servePools(cfg, jobs())
	run := &serveRun{Layers: layers{}}
	var srv *serve.Server
	var conns []net.Conn
	var served sync.WaitGroup
	runtime.GC() // collect the generated pools' garbage before measuring
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			closeServer(srv, conns, &served)
		}
		t0 := time.Now()
		var err error
		srv, conns, err = startServer(ctx, &served)
		if err != nil {
			return nil, err
		}
		run.Setups = append(run.Setups, time.Since(t0))
	}
	k0, k1, k2 := analysis.KernelCounters()
	settle()

	// The timed window: one goroutine per connection.
	epoch := time.Now()
	end := epoch.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	stats := make([]*connStats, len(conns))
	lanes := make([]*lane, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for c := range conns {
		if traced {
			lanes[c] = newLane(epoch)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[c], errs[c] = driveConn(conns[c], pools[c], shape, end, lanes[c])
		}()
	}
	wg.Wait()
	run.Busy = time.Since(epoch)
	run.RSS = selfPeakMB()
	serverStats := srv.Stats()
	closeServer(srv, conns, &served)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	a, b, c := analysis.KernelCounters()
	caches := scenario.CacheStats()

	var lat [4][]time.Duration
	for _, st := range stats {
		run.Sent += st.sent
		run.Answered += st.answered
		run.Failed += st.failed + st.sent - st.answered
		run.Blocks = append(run.Blocks, st.blocks...)
		run.BlockP99 = append(run.BlockP99, st.blockP99...)
		for v := range lat {
			for _, ns := range st.lat[v] {
				lat[v] = append(lat[v], time.Duration(ns))
			}
		}
	}
	for v := range lat {
		run.Lat = append(run.Lat, lat[v]...)
	}
	// Every answer is checked against direct calls into the analysis,
	// wcet and scenario layers.
	check, err := checkAnswers(pools, stats)
	if err != nil {
		return nil, err
	}
	run.Digest = check.digest

	l := run.Layers
	for v, name := range serveVerbs {
		l["serve."+name+".p50_us"] = micros(quantile(lat[v], 0.50))
		l["serve."+name+".p99_us"] = micros(quantile(lat[v], 0.99))
		l["serve."+name+".samples"] = float64(len(lat[v]))
	}
	l["serve.server_p50_us"] = float64(serverStats.Latency.P50NS) / 1e3
	l["serve.wait_us"] = micros(quantile(run.Lat, 0.50)) - l["serve.server_p50_us"]
	hits, misses := serverStats.WCTTMemoHits, serverStats.WCTTMemoMisses
	l["serve.memo_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	l["serve.coalesced"] = float64(serverStats.Coalesced)
	l["serve.rejected"] = float64(serverStats.Rejected)
	l["scenario.model_cache_hit_ratio"] = ratio(float64(caches.Models.Hits), float64(caches.Models.Hits+caches.Models.Misses))
	l["wcet.engine_cache_hit_ratio"] = ratio(float64(caches.Engines.Hits), float64(caches.Engines.Hits+caches.Engines.Misses))
	l["analysis.kernel_runs"] = float64(a - k0)
	l["analysis.row_sweeps"] = float64(b - k1)
	l["analysis.memo_warmed"] = float64(c - k2)
	l["analysis.point_cold_ns"] = check.coldNS
	l["analysis.point_warm_ns"] = check.warmNS
	l["scenario.execute_ns.simulate"] = check.scenarioNS
	l["lineio.scan_ns_per_line"] = scanNSPerLine(pools[0])
	var topos []mesh.Topology
	for _, t := range []target{{"", 8}, {"", 16}, {"cmesh", 16}} {
		ts, _ := mesh.ParseTopology(t.topo)
		topo, err := ts.Build(mesh.MustDim(t.size, t.size))
		if err != nil {
			return nil, err
		}
		topos = append(topos, topo)
	}
	l["mesh.walk_ns_per_hop"] = walkNSPerHop(topos, cfg.Seed)
	if traced {
		run.Self, run.LaneNS = selfTimes(lanes)
		if err := dumpSpans(cfg, lanes); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// startServer builds a server on a loopback listener, dials jobs()
// connections and waits until each has answered a ping.
func startServer(ctx context.Context, served *sync.WaitGroup) (*serve.Server, []net.Conn, error) {
	srv := serve.NewServer(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	served.Add(1)
	go func() {
		defer served.Done()
		_ = srv.ServeListener(ctx, ln) // returns nil once the server drains
	}()
	var conns []net.Conn
	for i := 0; i < jobs(); i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			conns = append(conns, c)
			_, err = c.Write([]byte("{\"op\":\"ping\"}\n"))
		}
		if err == nil {
			_, err = bufio.NewReader(c).ReadSlice('\n')
		}
		if err != nil {
			closeServer(srv, conns, served)
			return nil, nil, fmt.Errorf("serve set-up: %w", err)
		}
	}
	return srv, conns, nil
}

// closeServer closes the connections, drains the server and waits for its
// listener loop to return.
func closeServer(srv *serve.Server, conns []net.Conn, served *sync.WaitGroup) {
	for _, c := range conns {
		_ = c.Close()
	}
	srv.Close()
	served.Wait()
}

// driveConn runs one connection's closed loop until end, then drains the
// lines still in flight. On a traced run every line is a span on l.
func driveConn(c net.Conn, pool []poolLine, shape serveShape, end time.Time, l *lane) (*connStats, error) {
	st := &connStats{answers: make([][]byte, len(pool))}
	rd := bufio.NewReaderSize(c, 256<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	sentAt := make([]time.Time, shape.window)
	spans := make([]int, shape.window)
	root := l.begin("bench.conn", -1, 0)
	next := 0 // pool index of the next line to send
	send := func() error {
		p := &pool[next]
		slot := int(st.sent) % shape.window
		sentAt[slot] = time.Now()
		spans[slot] = l.begin(verbSpans[p.verb], root, st.sent)
		_, err := bw.Write(p.line)
		st.sent++
		next = (next + 1) % len(pool)
		return err
	}
	for st.sent < int64(shape.window) {
		if err := send(); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	blockStart := time.Now()
	stopping := false
	for st.answered < st.sent {
		resp, err := rd.ReadSlice('\n')
		if err != nil {
			return nil, fmt.Errorf("serve: read response %d: %w", st.answered, err)
		}
		now := time.Now()
		slot := int(st.answered) % shape.window
		idx := int(st.answered % int64(len(pool)))
		p := &pool[idx]
		l.end(spans[slot])
		lat := now.Sub(sentAt[slot])
		st.lat[p.verb] = append(st.lat[p.verb], uint32(min(lat, math.MaxUint32)))
		st.blockLat = append(st.blockLat, lat)
		if err := st.record(idx, p, resp); err != nil {
			return nil, err
		}
		st.answered++
		if st.answered%int64(shape.block) == 0 {
			st.blocks = append(st.blocks, now.Sub(blockStart))
			st.blockP99 = append(st.blockP99, quantile(st.blockLat, 0.99))
			st.blockLat = st.blockLat[:0]
			blockStart = now
		}
		if !stopping && !now.Before(end) {
			stopping = true
		}
		if !stopping {
			if err := send(); err != nil {
				return nil, err
			}
		}
		if rd.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return nil, err
			}
		}
	}
	l.end(root)
	return st, nil
}

// record checks one response's framing and id and keeps its body: the first
// answer to a pool line is kept for the final check, later ones must equal
// it.
func (st *connStats) record(idx int, p *poolLine, resp []byte) error {
	resp = bytes.TrimSuffix(resp, []byte{'\n'})
	head, body, ok := bytes.Cut(resp, []byte{','})
	digits, okID := bytes.CutPrefix(head, []byte(`{"id":`))
	var id int64
	for _, ch := range digits {
		okID = okID && '0' <= ch && ch <= '9'
		id = id*10 + int64(ch-'0')
	}
	if !ok || !okID || id != p.id {
		return fmt.Errorf("%w: serve: response %q does not answer request id %d", errMismatch, resp, p.id)
	}
	if !bytes.HasPrefix(body, []byte(`"ok":true`)) {
		st.failed++
		return nil
	}
	if st.answers[idx] == nil {
		st.answers[idx] = bytes.Clone(body)
	} else if !bytes.Equal(st.answers[idx], body) {
		return fmt.Errorf("%w: serve: line %d answered %q, earlier %q", errMismatch, p.id, body, st.answers[idx])
	}
	return nil
}

// answerCheck is the outcome of checking every answer.
type answerCheck struct {
	digest         string
	coldNS, warmNS float64 // Model.MessageWCTT per query, cold and memo-warm
	scenarioNS     float64 // scenario.Execute per scenario line
}

// wcttQuery is one analytical query of the pool.
type wcttQuery struct {
	t        target
	design   network.Design
	src, dst mesh.Node
	payload  int
}

// decoded is a pool line decoded again for the check, with its analytical
// queries (one for wctt, 64 for batch).
type decoded struct {
	p       *poolLine
	answer  []byte
	req     serve.Request
	queries []wcttQuery
}

func decodeLine(p *poolLine) (decoded, error) {
	d := decoded{p: p}
	if err := json.Unmarshal(p.line, &d.req); err != nil {
		return d, err
	}
	design, err := scenario.ParseDesign(d.req.Design)
	if p.verb == verbScenario || err != nil {
		return d, nil // scenario lines carry their design in the spec
	}
	t := target{d.req.Topology, d.req.Width}
	payload := d.req.PayloadBits
	if payload == 0 {
		payload = traffic.RequestPayloadBits
	}
	switch p.verb {
	case verbWCTT:
		d.queries = []wcttQuery{{t, design, mesh.Node{X: d.req.Src.X, Y: d.req.Src.Y}, mesh.Node{X: d.req.Dst.X, Y: d.req.Dst.Y}, payload}}
	case verbBatch:
		var tuples [][4]int
		if err := json.Unmarshal(d.req.Queries, &tuples); err != nil {
			return d, err
		}
		for _, q := range tuples {
			d.queries = append(d.queries, wcttQuery{t, design, mesh.Node{X: q[0], Y: q[1]}, mesh.Node{X: q[2], Y: q[3]}, payload})
		}
	}
	return d, nil
}

// checkAnswers recomputes every pool line with direct calls — fresh
// analysis models (not the server's shared ones), the compiled wcet engine
// and scenario.Execute — and compares the answers byte for byte. Every
// pool line must have been answered, so the digest covers the same answers
// on every run of a seed.
func checkAnswers(pools [][]poolLine, stats []*connStats) (answerCheck, error) {
	var out answerCheck
	var lines []decoded
	var specs []scenario.Spec
	specOf := map[*poolLine]int{}
	models := map[target]*analysis.Model{}
	var queries []wcttQuery
	for c, pool := range pools {
		for i := range pool {
			p := &pool[i]
			if stats[c].answers[i] == nil {
				return out, fmt.Errorf("serve: window too short: line %d of connection %d was never answered", i, c)
			}
			d, err := decodeLine(p)
			if err != nil {
				return out, err
			}
			d.answer = stats[c].answers[i]
			lines = append(lines, d)
			if p.verb == verbScenario {
				specOf[p] = len(specs)
				specs = append(specs, *d.req.Spec)
			}
			for _, q := range d.queries {
				queries = append(queries, q)
				if models[q.t] != nil {
					continue
				}
				ts, err := mesh.ParseTopology(q.t.topo)
				if err != nil {
					return out, err
				}
				params := analysis.DefaultParams(mesh.MustDim(q.t.size, q.t.size))
				params.Topo = ts
				if models[q.t], err = analysis.NewModel(params); err != nil {
					return out, err
				}
			}
		}
	}
	// Every query twice on the fresh models: the first pass computes (cold),
	// the second hits their memos (warm).
	expect := make(map[wcttQuery]uint64, len(queries))
	for pass := 0; pass < 2; pass++ {
		t0 := time.Now()
		for _, q := range queries {
			v, err := models[q.t].MessageWCTT(q.design, q.src, q.dst, q.payload)
			if err != nil {
				return out, err
			}
			expect[q] = v
		}
		ns := ratio(float64(time.Since(t0)), float64(len(queries)))
		if pass == 0 {
			out.coldNS = ns
		} else {
			out.warmNS = ns
		}
	}
	scenarioRes, took, err := executeAll(specs, jobs())
	if err != nil {
		return out, err
	}
	var total time.Duration
	for _, d := range took {
		total += d
	}
	out.scenarioNS = ratio(float64(total), float64(len(took)))

	answers := make([][]byte, len(lines))
	for i, d := range lines {
		want := []byte(`"ok":true,`)
		switch d.p.verb {
		case verbWCTT:
			want = fmt.Appendf(want, `"cycles":%d}`, expect[d.queries[0]])
		case verbBatch:
			want = append(want, `"cycles":[`...)
			for k, q := range d.queries {
				if k > 0 {
					want = append(want, ',')
				}
				want = strconv.AppendUint(want, expect[q], 10)
			}
			want = append(want, ']', '}')
		case verbWCET:
			design, _ := scenario.ParseDesign(d.req.Design)
			eng, err := scenario.PlatformFor(mesh.MustDim(d.req.Width, d.req.Height)).Engine()
			if err != nil {
				return out, err
			}
			b, err := workload.BenchmarkByName(d.req.Workload)
			if err != nil {
				return out, err
			}
			v, err := eng.BenchmarkWCET(design, mesh.Node{X: d.req.Core.X, Y: d.req.Core.Y}, b)
			if err != nil {
				return out, err
			}
			want = fmt.Appendf(want, `"cycles":%d}`, v)
		case verbScenario:
			want = append(want, `"result":`...)
			want = append(want, scenarioRes[specOf[d.p]]...)
			want = append(want, '}')
		}
		if !bytes.Equal(d.answer, want) {
			return out, fmt.Errorf("%w: serve: line %d answered %s, want %s", errMismatch, d.p.id, d.answer, want)
		}
		answers[i] = d.answer
	}
	out.digest = digest(answers...)
	return out, nil
}

// scanNSPerLine times the shared line scanner over a pool's request lines.
func scanNSPerLine(pool []poolLine) float64 {
	var buf []byte
	for _, p := range pool {
		buf = append(buf, p.line...)
	}
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		sc := lineio.NewScanner(bytes.NewReader(buf))
		for sc.Scan() {
		}
		best = min(best, time.Since(t0))
	}
	return ratio(float64(best), float64(len(pool)))
}

// serveChildInput is what the parent hands a serve child.
type serveChildInput struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Tiny    bool    `json:"tiny"`
	SpanDir string  `json:"span_dir"`
}

// serveChild runs one serve window in a fresh process (cold caches) and
// prints its serveRun.
func serveChild(ctx context.Context, traced bool) error {
	raw, err := io.ReadAll(os.Stdin)
	if err != nil {
		return err
	}
	var in serveChildInput
	if err := json.Unmarshal(raw, &in); err != nil {
		return err
	}
	cfg := config{Workload: "serve-mixed", Seed: in.Seed, Seconds: in.Seconds, Tiny: in.Tiny, SpanDir: in.SpanDir}
	run, err := serveWindow(ctx, cfg, traced)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(run)
}

func runServeMixed(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{Layers: layers{}, Aliases: map[string]string{
		"ops_per_s": "serve_lines_per_s", "p50_ms": "serve_p50_ms", "p99_ms": "serve_p99_ms"}}
	if !cfg.Trace {
		run, err := serveWindow(ctx, cfg, false)
		if err != nil {
			return nil, err
		}
		out.Attempted, out.Failed, out.Digest = run.Sent, run.Failed, run.Digest
		// A pass is one block of lines on each connection at once.
		e := e2e{setups: run.Setups, passes: run.Blocks, opsPerPass: float64(shapeOf(cfg).block * jobs()),
			opName: "request lines", lat: run.Lat, blockP99: run.BlockP99, latWhat: "one request line", rss: []float64{run.RSS}}
		out.EndToEnd = e.metrics()
		n := len(run.Lat)
		out.Notes = append(out.Notes, fmt.Sprintf("all lines: exact p99 %.4f ms (n=%d, %d beyond)",
			millis(quantile(run.Lat, 0.99)), n, beyond(n, 0.99)))
		for _, v := range serveVerbs {
			out.Notes = append(out.Notes, fmt.Sprintf("serve.%s p50 %.1f us p99 %.1f us (n=%.0f)",
				v, run.Layers["serve."+v+".p50_us"], run.Layers["serve."+v+".p99_us"], run.Layers["serve."+v+".samples"]))
		}
		return out, nil
	}
	// The traced run compares a traced and an untraced window, each half
	// the run, each in a fresh process so both start with cold caches.
	in := serveChildInput{Seed: cfg.Seed, Seconds: cfg.Seconds / 2, Tiny: cfg.Tiny, SpanDir: cfg.SpanDir}
	var plain, traced serveRun
	if _, err := spawnJSON(roleServe, in, &plain); err != nil {
		return nil, err
	}
	if _, err := spawnJSON(roleServeTraced, in, &traced); err != nil {
		return nil, err
	}
	if plain.Digest != traced.Digest {
		return nil, fmt.Errorf("%w: serve: traced and untraced windows answered differently", errMismatch)
	}
	out.Attempted = plain.Sent + traced.Sent
	out.Failed = plain.Failed + traced.Failed
	out.Digest = plain.Digest
	for k, v := range plain.Layers {
		out.Layers[k] = v
	}
	// Per-line time of the traced window over that of the untraced one.
	perLine := func(r serveRun) time.Duration { return time.Duration(float64(r.Busy) / float64(max(1, r.Answered))) }
	self := traced.Self
	for layer, ns := range self {
		out.Layers["self_ms."+layer] = float64(ns) / 1e6
	}
	out.Layers["trace.coverage"] = 1 - ratio(float64(self["bench"]), float64(traced.LaneNS))
	out.Layers["trace.overhead"] = ratio(float64(perLine(traced)), float64(perLine(plain)))
	return out, nil
}
