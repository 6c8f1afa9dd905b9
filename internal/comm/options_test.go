package comm

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestOpenRejectsBadOptions: every inconsistent tuning is rejected by
// Open before any factory runs, with an error naming the offending
// field — and therefore identically on every registered transport,
// including ones that would ignore the field. A row that names one
// transport holds a need of that transport alone.
func TestOpenRejectsBadOptions(t *testing.T) {
	cases := []struct {
		name string
		opts TransportOptions
		want string // the field the error must name
		only string // the one transport the row applies to; "" = all
	}{
		{"negative flush period", TransportOptions{FlushPeriod: -time.Millisecond}, "flush period", ""},
		{"negative batch cap", TransportOptions{BatchBytes: -1}, "batch cap", ""},
		{"batch cap over the frame limit", TransportOptions{BatchBytes: maxFrame + 1}, "batch cap", ""},
		{"unknown codec", TransportOptions{Compression: "lz77"}, `compression codec "lz77"`, ""},
		{"negative heartbeat interval", TransportOptions{HeartbeatInterval: -time.Second}, "heartbeat interval", ""},
		{"negative heartbeat miss budget", TransportOptions{HeartbeatMiss: -1}, "heartbeat miss", ""},
		{"flush period not below heartbeat interval",
			TransportOptions{FlushPeriod: time.Second, HeartbeatInterval: time.Second}, "flush period", ""},
		{"negative outbox high-water mark", TransportOptions{OutboxHighWater: -1}, "outbox high-water", ""},
		{"negative dial timeout", TransportOptions{DialTimeout: -time.Second}, "dial -1s", ""},
		{"negative accept timeout", TransportOptions{AcceptTimeout: -time.Second}, "accept -1s", ""},
		{"inter-group model on a flat world", TransportOptions{InterModel: &Model{}}, "InterModel", ""},
		{"negative model latency", TransportOptions{Model: &Model{Latency: -time.Millisecond}}, "network model", ""},
		{"negative model delay", TransportOptions{Model: &Model{Delay: -time.Millisecond}}, "network model", ""},
		{"negative model bandwidth", TransportOptions{Model: &Model{Bandwidth: -5}}, "network model", ""},
		{"NaN model bandwidth", TransportOptions{Model: &Model{Bandwidth: math.NaN()}}, "network model", ""},
		{"negative inter-group latency", TransportOptions{InterModel: &Model{Latency: -time.Millisecond}}, "network model", ""},
		{"hybrid without a topology", TransportOptions{}, "requires a Topology", "hybrid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for _, transport := range Transports() {
				if tc.only != "" && transport != tc.only {
					continue
				}
				if err := CheckOpen(transport, 2, tc.opts); err == nil {
					t.Errorf("%s: CheckOpen accepted the options", transport)
				}
				w, err := Open(transport, 2, tc.opts)
				if err == nil {
					w.Close()
					t.Fatalf("%s accepted the options", transport)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: error %q does not name %q", transport, err, tc.want)
				}
				if first == "" {
					first = err.Error()
				} else if err.Error() != first {
					t.Errorf("%s rejected with %q, another transport with %q", transport, err, first)
				}
			}
		})
	}
}
