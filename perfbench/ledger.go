package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The traced run's span ledger. Each request of the replayed script is
// timed at every cumulative stage — the layer functions alone, the
// handler through ServeHTTP, the loopback HTTP round trip — and each
// stage's span is the parent of the stages it contains. A layer's self
// time is its span minus what its child spans cover, so the self times
// of one request sum to its outermost span exactly.

// span is one timed interval of the traced run.
type span struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`
	Start  int64  `json:"start_ns"` // since the ledger's start
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing stage's span; -1 for the root
}

// ledger collects spans from concurrent replay workers.
type ledger struct {
	t0       time.Time
	parentOf map[string]string // stage name → enclosing stage name
	mu       sync.Mutex
	spans    []span
}

func newLedger(parentOf map[string]string) *ledger {
	return &ledger{t0: time.Now(), parentOf: parentOf}
}

// add records request req's span at stage name.
func (l *ledger) add(name string, req int, start, end time.Time) {
	l.addNs(name, req, int64(start.Sub(l.t0)), int64(end.Sub(l.t0)))
}

// addNs records a span given as offsets from the ledger's start.
func (l *ledger) addNs(name string, req int, start, end int64) {
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Req: int32(req), Start: start, End: end, Parent: -1})
	l.mu.Unlock()
}

// link resolves every span's parent: the span of the enclosing stage
// for the same request.
func (l *ledger) link() {
	type key struct {
		req  int32
		name string
	}
	at := make(map[key]int32, len(l.spans))
	for i, s := range l.spans {
		at[key{s.Req, s.Name}] = int32(i)
	}
	for i := range l.spans {
		s := &l.spans[i]
		s.Parent = -1
		if p, ok := l.parentOf[s.Name]; ok {
			if j, ok := at[key{s.Req, p}]; ok {
				s.Parent = j
			}
		}
	}
}

// selfTimes links the spans and sums each stage's self time (its
// duration minus its children's) in ns, per request class.
func (l *ledger) selfTimes(class func(req int32) string) map[string]map[string]float64 {
	l.link()
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]map[string]float64{}
	for i, s := range l.spans {
		c := class(s.Req)
		if out[c] == nil {
			out[c] = map[string]float64{}
		}
		out[c][s.Name] += float64(self[i])
	}
	return out
}

// write stores the spans as JSON lines under .bench_build/spans.
func (l *ledger) write(name string) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer lists every per-layer metric the traced run reports, on
// every workload; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"engine.ns_per_lookup", "ns"},
	{"engine.lookups", "count"},
	{"wire.json_decode_us", "us"},
	{"wire.json_encode_us", "us"},
	{"binary.decode_us", "us"},
	{"registry.get_us", "us"},
	{"registry.compile_ms", "ms"},
	{"handler.self_us", "us"},
	{"http.self_us", "us"},
	{"loadgen.encode_us", "us"},
	{"loadgen.decode_us", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"dynamic.apply_us", "us"},
	{"dynamic.seed_ms", "ms"},
	{"dynamic.reassigned_per_event", "count/event"},
	{"dynamic.full_recolors", "count"},
	{"dynamic.compactions", "count"},
	{"persist.wal_us", "us"},
	{"persist.wal_bytes_per_event", "B/event"},
	{"persist.snapshots", "count"},
	{"persist.catchup_ms", "ms"},
	{"hub.publish_ns_per_sub", "ns"},
	{"hub.deltas_pushed", "count"},
	{"hub.subs_dropped", "count"},
	{"subscribe.inproc_recv_us", "us"},
	{"subscribe.stream_decode_us", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"unattributed_us", "us"},
	{"trace_overhead_pct", "%"},
}

// layerMetrics returns every per-layer metric at 0, with its unit.
func layerMetrics() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

// set assigns a per-layer metric, keeping its declared unit.
func set(m map[string]metric, name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name) // a bug in this file
	}
	mt.Value = v
	m[name] = mt
}

// printLedger writes the per-class self-time table (µs per request) as
// one JSON line.
func printLedger(sums map[string]map[string]float64, counts map[string]int) {
	table := map[string]map[string]float64{}
	for c, bySpan := range sums {
		row := map[string]float64{"requests": float64(counts[c])}
		for name, ns := range bySpan {
			row[name+"_us"] = ns / float64(counts[c]) / 1e3
		}
		table[c] = row
	}
	line, err := json.Marshal(map[string]any{"ledger": table})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ledger:", err)
		return
	}
	fmt.Println(string(line))
}

// promValue reads an unlabelled sample from Prometheus text output.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}

// replay runs fn over each worker's items on maxConns goroutines, the
// traced stages' stand-in for the workload's concurrency.
func replay[T any](work [][]T, fn func(w int, it T)) {
	var wg sync.WaitGroup
	for w, items := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, it := range items {
				fn(w, it)
			}
		}()
	}
	wg.Wait()
}
