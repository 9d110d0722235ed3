// Command perfbench is the repository benchmark: it serves the latticed
// handler (service.NewServer at its daemon defaults) on a loopback
// listener inside this process, drives one seeded workload against it,
// checks every answer, and prints the metrics as one JSON line.
//
//	bash perfbench/run.sh --workload lookup-json --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	lookup-json  closed loop, 2 connections, JSON batch lookups
//	lookup-bin   the same script in the binary codec
//	churn        open-loop mutation sessions with durable WAL, a live
//	             subscribe stream and ~1000 in-process subscribers
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it replays the script through cumulative stages (layer functions,
// ServeHTTP, loopback HTTP) and reports the per-layer ledger. The last
// stdout line is {"correct", "attempted", "failed", "metrics"}; the
// line before it records the run's parameters. A wrong answer makes the
// run exit 1 after printing its result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// config is one invocation's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// duration is the measured run length.
func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations attempted and failed across goroutines, and
// keeps the first few failure messages for stderr.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	msgs      []string
}

func (t *tally) ok(n int64) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// fail records one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.msgs) < 10 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(config, *tally) (map[string]metric, map[string]any, error)
}{
	"lookup-json": {
		run:   func(c config, t *tally) (map[string]metric, map[string]any, error) { return runLookup(c, false, t) },
		trace: func(c config, t *tally) (map[string]metric, map[string]any, error) { return traceLookup(c, false, t) },
	},
	"lookup-bin": {
		run:   func(c config, t *tally) (map[string]metric, map[string]any, error) { return runLookup(c, true, t) },
		trace: func(c config, t *tally) (map[string]metric, map[string]any, error) { return traceLookup(c, true, t) },
	},
	"churn": {run: runChurn, trace: traceChurn},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "lookup-json, lookup-bin or churn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same requests")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result. Setup failures
// are errors (no result is printed); failed operations are counted in
// the result.
func run(cfg config) (result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want lookup-json, lookup-bin or churn)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return result{}, errors.New("--seconds must be at least 1")
	}
	fn := w.run
	if cfg.trace {
		fn = w.trace
	}
	var t tally
	metrics, params, err := fn(cfg, &t)
	if err != nil {
		return result{}, err
	}
	if !cfg.trace {
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	printMeta(cfg, params)
	for _, m := range t.msgs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", m)
	}
	return result{Correct: t.failed == 0, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: metrics}, nil
}

// printMeta writes the run's provenance line: commit, CPU and Go
// runtime, seed and the workload's parameters.
func printMeta(cfg config, params map[string]any) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	meta := map[string]any{
		"commit":     rev,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"params":     params,
	}
	line, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: meta:", err)
		return
	}
	fmt.Println(string(line))
}
