package analysis

import (
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/stats"
)

// This file builds the WCTT scalability study of Table II of the paper
// (max / mean / min WCTT over every flow of the mesh, for one-flit packets,
// regular design versus WaW+WaP) and the Upper-Bound Delay (UBD) values the
// WCET computation mode injects (Section IV).

// WCTTSummary is the per-design summary of the WCTT bounds of every flow of
// an all-to-all flow set (assumption (1): every node may communicate with
// every other node).
type WCTTSummary struct {
	Design network.Design
	Dim    mesh.Dim
	Max    uint64
	Min    uint64
	Mean   float64
	Flows  int
}

// String renders the summary in the paper's "max mean min" column order.
func (s WCTTSummary) String() string {
	return fmt.Sprintf("%v %v: max=%d mean=%.2f min=%d (%d flows)", s.Dim, s.Design, s.Max, s.Mean, s.Min, s.Flows)
}

// SummarizeOneFlitWCTT computes max/mean/min of the one-flit-packet WCTT
// bound over every ordered pair of distinct nodes, for the given design.
// It runs on the incremental all-pairs kernels (kernel.go) — amortized O(1)
// route-walk work per pair instead of O(hops) — one source router row at a
// time: a Wr x RN band holds the bounds from every router of the row to
// every router, and every endpoint on the row is folded from it before the
// next band is filled. Scratch is O(N*H), never an N^2 table. Endpoints are
// folded in the exact pair order of the retained per-pair path
// (PairwiseSummarizeOneFlitWCTT), so the mean — the float sum of the bounds
// in that order, divided by the flow count — is bit-identical, not merely
// close. Steady-state calls perform no heap allocations (the scratch is
// pooled).
func (m *Model) SummarizeOneFlitWCTT(design network.Design) (WCTTSummary, error) {
	W, rn := m.rdim.Width, m.rdim.Nodes()
	// One pooled buffer holds the band and, for the regular design, the
	// Hr x RN column table.
	bandN := W * rn
	sp := getScratch(bandN + 2*m.rdim.Height*rn)
	defer putScratch(sp)
	band, col := (*sp)[:bandN], (*sp)[bandN:]
	switch design {
	case network.DesignRegular, network.DesignWaPOnly:
		m.regularColTable(col, 1)
		return m.summarizeBands(design, band, func(y int) {
			m.regularBand(band, rn, y, col, 1, 1)
		}), nil
	case network.DesignWaWWaP, network.DesignWaWOnly:
		return m.summarizeBands(design, band, func(y int) {
			for x := 0; x < W; x++ {
				m.wawSourceSweep(band[x*rn:x*rn+rn], mesh.Node{X: x, Y: y}, 1, 1)
			}
		}), nil
	default:
		return WCTTSummary{}, fmt.Errorf("analysis: unknown design %v", design)
	}
}

// summarizeBands folds the summary over source router rows in order: fill(y)
// writes the bound from source router (x, y) to destination router rd into
// band[x*RN+rd], then every endpoint attached to router row y is folded in
// endpoint-index order, reading each destination through its router.
// Endpoint rows map onto router rows in non-decreasing order, so this is
// exactly the reference fold order. The fold keeps only what WCTTSummary
// reports: count, min, max and the float sum of the bounds.
func (m *Model) summarizeBands(design network.Design, band []uint64, fill func(y int)) WCTTSummary {
	kernelAllPairsRuns.Add(1)
	W, rn, n := m.rdim.Width, m.rdim.Nodes(), len(m.epRouter)
	var lo, hi uint64 = math.MaxUint64, 0
	var sum float64
	si := 0
	for y := 0; y < m.rdim.Height; y++ {
		fill(y)
		for ; si < n && int(m.epRouter[si])/W == y; si++ {
			x := int(m.epRouter[si]) - y*W
			row := band[x*rn : x*rn+rn]
			for di, r := range m.epRouter {
				if di == si {
					continue
				}
				v := row[r]
				lo = min(lo, v)
				hi = max(hi, v)
				sum += float64(v)
			}
		}
	}
	s := WCTTSummary{Design: design, Dim: m.p.Dim, Max: hi, Flows: n * (n - 1)}
	if s.Flows > 0 {
		s.Min, s.Mean = lo, sum/float64(s.Flows)
	}
	return s
}

// PairwiseSummarizeOneFlitWCTT is the retained per-pair summary path — the
// pre-kernel implementation, kept as the pinned reference the kernel-backed
// SummarizeOneFlitWCTT must match bit-for-bit (equivalence tests in
// kernel_test.go) and as the baseline the BenchmarkAnalysis pairwise/NxN
// benches measure the kernels against.
func (m *Model) PairwiseSummarizeOneFlitWCTT(design network.Design) (WCTTSummary, error) {
	var sampler stats.Sampler
	var maxV, minV uint64
	first := true
	nodes := m.nodes
	count := 0
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			v, err := m.FlowWCTTOneFlit(design, src, dst)
			if err != nil {
				return WCTTSummary{}, err
			}
			if first {
				maxV, minV = v, v
				first = false
			} else {
				if v > maxV {
					maxV = v
				}
				if v < minV {
					minV = v
				}
			}
			sampler.AddUint(v)
			count++
		}
	}
	return WCTTSummary{
		Design: design,
		Dim:    m.p.Dim,
		Max:    maxV,
		Min:    minV,
		Mean:   sampler.Mean(),
		Flows:  count,
	}, nil
}

// TableIIRow is one row of Table II: the regular-design and WaW+WaP-design
// WCTT summaries for one mesh size.
type TableIIRow struct {
	Dim     mesh.Dim
	Regular WCTTSummary
	WaWWaP  WCTTSummary
}

// RowForDim computes one Table II row (the regular and WaW+WaP one-flit
// WCTT summaries) for a single mesh, sharing one model between the two
// designs. The serial TableII below is a thin adapter over it; the
// sweep-backed core.TableII instead schedules one scenario per
// (size, design) pair — finer-grained parallelism at the cost of one extra
// model construction per size — and reassembles the same rows.
func RowForDim(d mesh.Dim) (TableIIRow, error) {
	m, err := NewModel(DefaultParams(d))
	if err != nil {
		return TableIIRow{}, err
	}
	reg, err := m.SummarizeOneFlitWCTT(network.DesignRegular)
	if err != nil {
		return TableIIRow{}, err
	}
	waw, err := m.SummarizeOneFlitWCTT(network.DesignWaWWaP)
	if err != nil {
		return TableIIRow{}, err
	}
	return TableIIRow{Dim: d, Regular: reg, WaWWaP: waw}, nil
}

// TableII computes the WCTT scalability table for the given square mesh
// sizes (the paper uses 2x2 … 8x8) with one-flit packets, serially. Callers
// that want the sizes analysed in parallel should go through the scenario
// and sweep layers (see core.TableII).
func TableII(sizes []int) ([]TableIIRow, error) {
	rows := make([]TableIIRow, 0, len(sizes))
	for _, s := range sizes {
		d, err := mesh.NewDim(s, s)
		if err != nil {
			return nil, err
		}
		row, err := RowForDim(d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RoundTripUBD returns the Upper-Bound Delay of one memory transaction of a
// core located at node core against a memory controller at node memory: the
// WCTT bound of the request message plus the WCTT bound of the reply
// message, for the given design. This is the delay the WCET computation mode
// (Paolieri et al. [17]) charges to every NoC access at analysis time; the
// memory service latency itself is added by the wcet package.
//
// When the core shares its node with the memory controller (the R(0,0) entry
// of Table III) the transaction still crosses the local router's ejection
// port twice and competes there with the traffic of every other node, so the
// bound degenerates to twice the ejection-port contention bound.
func (m *Model) RoundTripUBD(design network.Design, core, memory mesh.Node, requestBits, replyBits int) (uint64, error) {
	if core == memory {
		one, err := m.LocalAccessWCTT(design, memory)
		if err != nil {
			return 0, err
		}
		return saturatingMul(2, one), nil
	}
	req, err := m.MessageWCTT(design, core, memory, requestBits)
	if err != nil {
		return 0, err
	}
	rep, err := m.MessageWCTT(design, memory, core, replyBits)
	if err != nil {
		return 0, err
	}
	return saturatingAdd(req, rep), nil
}

// LocalAccessWCTT bounds the traversal of a single minimum-size message
// between a core and a memory controller attached to the same router: the
// message only crosses the local ejection port, but under the worst-case
// load assumption every other node's traffic competes for that port.
func (m *Model) LocalAccessWCTT(design network.Design, n mesh.Node) (uint64, error) {
	if !m.p.Dim.Contains(n) {
		return 0, fmt.Errorf("analysis: node %v outside %v mesh", n, m.p.Dim)
	}
	H := uint64(m.p.HeaderOverhead)
	R := uint64(m.p.RouterLatency)
	idx := m.rdim.Index(m.topo.RouterOf(n))
	switch design {
	case network.DesignRegular, network.DesignWaPOnly:
		c := m.contender[idx][mesh.Local]
		L := uint64(m.p.Link.MaxPacketFlits)
		if design == network.DesignWaPOnly || L == 0 {
			L = uint64(m.p.Link.MinPacketFlits)
		}
		return saturatingAdd(saturatingMul(c-1, saturatingAdd(H, L)), R+1), nil
	case network.DesignWaWWaP, network.DesignWaWOnly:
		o := m.outShare[idx][mesh.Local]
		slot := uint64(m.p.Link.MinPacketFlits)
		if design == network.DesignWaWOnly && m.p.Link.MaxPacketFlits > 0 {
			slot = uint64(m.p.Link.MaxPacketFlits)
		}
		return saturatingAdd(saturatingMul(o-1, slot), R+1), nil
	default:
		return 0, fmt.Errorf("analysis: unknown design %v", design)
	}
}
