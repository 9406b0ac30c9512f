package hpn

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// MetricSum sums every registry metric whose name ends in suffix across
// all clusters attached to the hub (cluster prefixes are c2_, c3_, ...
// past the first). Returns 0 without a hub. Summation runs in sorted name
// order: float addition is not associative, so a map-order reduction would
// drift bitwise between same-seed runs.
func MetricSum(hub *TelemetryHub, suffix string) float64 {
	if hub == nil {
		return 0
	}
	var b strings.Builder
	if err := hub.Registry.WriteJSON(&b); err != nil {
		return 0
	}
	var metrics map[string]float64
	if err := json.Unmarshal([]byte(b.String()), &metrics); err != nil {
		return 0
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		if strings.HasSuffix(name, suffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var total float64
	for _, name := range names {
		total += metrics[name]
	}
	return total
}

// OverflowWarnings reports every bounded collector on the hub that hit its
// cap and silently dropped data: the trace-event ring (MaxTraceEvents) and
// the in-band per-hop collectors (InbandMax). One message per overflowing
// collector, ready to print to stderr; empty means every artifact is
// complete. RunOptions.Finish prints them for both CLIs.
func OverflowWarnings(hub *TelemetryHub) []string {
	if hub == nil {
		return nil
	}
	var out []string
	if hub.Tracer != nil {
		if d := hub.Tracer.Dropped(); d > 0 {
			out = append(out, fmt.Sprintf(
				"warning: trace buffer dropped %d events (cap reached); the trace under-reports — raise MaxTraceEvents", d))
		}
	}
	if d := MetricSum(hub, "netsim_inband_dropped_records"); d > 0 {
		out = append(out, fmt.Sprintf(
			"warning: in-band collectors dropped %.0f per-hop records (cap reached); inband.tsv under-reports — raise InbandMax", d))
	}
	return out
}
