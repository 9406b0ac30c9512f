package netsim

import (
	"fmt"
	"io"
	"strings"

	"hpn/internal/sim"
	"hpn/internal/topo"
)

// FlowRecord is the completed-flow log entry: what a production flow
// telemetry pipeline (or an INT collector) would export per flow.
type FlowRecord struct {
	ID         int64
	SrcHost    int
	SrcNIC     int
	DstHost    int
	DstNIC     int
	Port       int // source NIC port (plane) at completion
	Bytes      float64
	Start, End sim.Time
	Hops       int
	CrossedAgg bool
	CrossedCor bool
}

// Duration returns the flow completion time.
func (r FlowRecord) Duration() sim.Time { return r.End - r.Start }

// Gbps returns the flow's average goodput.
func (r FlowRecord) Gbps() float64 {
	d := r.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return r.Bytes * 8 / d / 1e9
}

// EnableFlowLog starts recording completed flows. Call before injecting
// traffic. If telemetry is attached, the log is also exposed as the
// "flowlog.tsv" artifact exporter.
func (s *Sim) EnableFlowLog() {
	s.flowLog = make([]FlowRecord, 0, 1024)
	s.registerFlowLogExporter()
}

// FlowLog returns the recorded completions.
func (s *Sim) FlowLog() []FlowRecord { return s.flowLog }

// logFlow appends a completion record if logging is on.
func (s *Sim) logFlow(f *Flow) {
	if s.flowLog == nil {
		return
	}
	rec := FlowRecord{
		ID:      f.ID,
		SrcHost: f.Src.Host, SrcNIC: f.Src.NIC,
		DstHost: f.Dst.Host, DstNIC: f.Dst.NIC,
		Port:  f.Port,
		Bytes: f.Bits / 8,
		Start: f.StartedAt, End: f.DoneAt,
		Hops: len(f.Path),
	}
	for _, lk := range f.Path {
		switch s.Top.Node(s.Top.Link(lk).To).Kind {
		case topo.KindAgg:
			rec.CrossedAgg = true
		case topo.KindCore:
			rec.CrossedCor = true
		}
	}
	s.flowLog = append(s.flowLog, rec)
}

// WriteFlowLog dumps the log as a TSV for offline analysis.
func (s *Sim) WriteFlowLog(w io.Writer) error {
	var b strings.Builder
	b.WriteString("id\tsrc\tdst\tport\tbytes\tstart_s\tend_s\tgbps\thops\tagg\tcore\n")
	for _, r := range s.flowLog {
		fmt.Fprintf(&b, "%d\t%d:%d\t%d:%d\t%d\t%.0f\t%.6f\t%.6f\t%.2f\t%d\t%v\t%v\n",
			r.ID, r.SrcHost, r.SrcNIC, r.DstHost, r.DstNIC, r.Port, r.Bytes,
			r.Start.Seconds(), r.End.Seconds(), r.Gbps(), r.Hops, r.CrossedAgg, r.CrossedCor)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
