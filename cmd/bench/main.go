// Command bench runs the repository benchmarks with -benchmem and writes
// a BENCH_<date>.json summary (ns/op, B/op, allocs/op per benchmark) so
// the performance trajectory is tracked in-repo from PR to PR.
//
// Usage:
//
//	go run ./cmd/bench [-bench regex] [-count N] [-pkg ./...] [-out file]
//	go run ./cmd/bench -parse raw.txt [-out file]   # summarize existing output
//	go run ./cmd/bench -load http://localhost:8370  # latticed load generator
//	go run ./cmd/bench -subscribe http://localhost:8370  # live push-stream client
//
// With -parse the raw `go test -bench` output in the given file is
// summarized instead of running the benchmarks — useful for snapshotting
// a baseline captured before a change. With -load the tool becomes an
// HTTP load generator against a running cmd/latticed daemon, reporting
// batch-query requests/s, point lookups/s, and p50/p90/p99/p99.9
// request latency from an internal/obs histogram (see -load-* flags;
// -load-format selects the JSON codec or the binary wire protocol).
// With -subscribe it opens one live push stream against a running
// daemon (-load-format json|bin, -sub-epoch to resume) and reports the
// deltas it applied. Serving and push throughput in-process are the
// repository benchmark's job: bash perfbench/run.sh --workload
// lookup-json|lookup-bin|churn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Result aggregates the samples of one benchmark.
type Result struct {
	Samples     int     `json:"samples"`
	NsPerOp     float64 `json:"ns_per_op"`      // minimum over samples (least-noise estimate)
	NsPerOpMean float64 `json:"ns_per_op_mean"` // arithmetic mean over samples
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Summary is the on-disk schema of a BENCH_<date>.json file.
type Summary struct {
	Date       string            `json:"date"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"` // the summarizing host's logical CPUs
	Bench      string            `json:"bench_regex"`
	Count      int               `json:"count"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkSlotAssignment-8   6891763   166.0 ns/op   56 B/op   4 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	bench := flag.String("bench", ".", "benchmark regex passed to go test -bench")
	count := flag.Int("count", 3, "samples per benchmark (go test -count)")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("out", "", "output file (default BENCH_<date>.json)")
	parse := flag.String("parse", "", "summarize an existing go test -bench output file instead of running")
	load := flag.String("load", "", "base URL of a latticed daemon to load-test instead of benchmarking")
	loadDuration := flag.Duration("load-duration", 5*time.Second, "load generator run time")
	loadConns := flag.Int("load-conns", 8, "concurrent load generator connections")
	loadBatch := flag.Int("load-batch", 1024, "points per batch request")
	loadTile := flag.String("load-tile", "cross:2:1", "tile spec queried by the load generator")
	loadFormat := flag.String("load-format", "json", "wire format for -load: json or bin")
	subscribe := flag.String("subscribe", "", "base URL of a latticed daemon to open a live push stream against")
	subEpoch := flag.Int64("sub-epoch", -1, "with -subscribe: resume epoch (-1 = fresh attach)")
	flag.Parse()

	if *subscribe != "" {
		if err := runSubscribe(*subscribe, *loadFormat, *subEpoch, *loadDuration); err != nil {
			fatal("subscribe: %v", err)
		}
		return
	}
	if *load != "" {
		if err := runLoad(loadConfig{
			baseURL:  *load,
			duration: *loadDuration,
			conns:    *loadConns,
			batch:    *loadBatch,
			tile:     *loadTile,
			format:   *loadFormat,
		}); err != nil {
			fatal("load: %v", err)
		}
		return
	}

	var raw []byte
	var err error
	if *parse != "" {
		raw, err = os.ReadFile(*parse)
		if err != nil {
			fatal("reading %s: %v", *parse, err)
		}
	} else {
		cmd := exec.Command("go", "test", "-run=^$",
			"-bench="+*bench, "-benchmem", "-count="+strconv.Itoa(*count), *pkg)
		cmd.Stderr = os.Stderr
		raw, err = cmd.Output()
		if err != nil {
			fatal("go test -bench: %v\n%s", err, raw)
		}
	}

	type agg struct {
		ns              []float64
		bytesOp, allocs int64
	}
	acc := map[string]*agg{}
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(raw), -1) {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		a := acc[m[1]]
		if a == nil {
			a = &agg{}
			acc[m[1]] = a
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		a.ns = append(a.ns, ns)
		if m[3] != "" {
			b, _ := strconv.ParseFloat(m[3], 64)
			a.bytesOp = int64(b)
		}
		if m[4] != "" {
			a.allocs, _ = strconv.ParseInt(m[4], 10, 64)
		}
	}
	if len(acc) == 0 {
		fatal("no benchmark lines found")
	}

	s := Summary{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Bench:      *bench,
		Count:      *count,
		Benchmarks: map[string]Result{},
	}
	for name, a := range acc {
		sort.Float64s(a.ns)
		var sum float64
		for _, v := range a.ns {
			sum += v
		}
		s.Benchmarks[name] = Result{
			Samples:     len(a.ns),
			NsPerOp:     a.ns[0],
			NsPerOpMean: sum / float64(len(a.ns)),
			BytesPerOp:  a.bytesOp,
			AllocsPerOp: a.allocs,
		}
	}

	path := *out
	if path == "" {
		path = "BENCH_" + s.Date + ".json"
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fatal("marshal: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal("write %s: %v", path, err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(s.Benchmarks))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
