package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of the exact samples, interpolating
// linearly between closest ranks (rank q·(n−1), the numpy default).
// It sorts xs in place. An empty sample gives 0.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(i)
	return float64(xs[i]) + frac*float64(xs[i+1]-xs[i])
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// tailWindows is how many equal time windows a run's p99 is taken over.
const tailWindows = 5

// latencyMetrics reports nanosecond samples in milliseconds. The exact
// median of all of them is the end-to-end metric prefix_p50_ms. The p99
// — the median over tailWindows equal windows of [0, span) of each
// window's exact p99, so that one burst of stalls moves it less — goes
// with the sample count into the run's parameters: on a shared 2-CPU
// host it swings with the host's scheduling stalls from run to run, too
// widely to bound. at[i] is when sample i was taken, as an offset into
// the run.
func latencyMetrics(m map[string]metric, params map[string]any, prefix string, ns, at []int64, span time.Duration) {
	windows := make([][]int64, tailWindows)
	for i, x := range ns {
		w := min(max(int(at[i]*tailWindows/int64(span)), 0), tailWindows-1)
		windows[w] = append(windows[w], x)
	}
	p99s := make([]int64, 0, tailWindows)
	for _, w := range windows {
		if len(w) > 0 {
			p99s = append(p99s, int64(quantile(w, 0.99)))
		}
	}
	m[prefix+"_p50_ms"] = metric{quantile(ns, 0.50) / 1e6, "ms"}
	params[prefix+"_p99_ms"] = quantile(p99s, 0.5) / 1e6
	params[prefix+"_samples"] = len(ns)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0 when
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// gcSample is a reading of the runtime's GC counters.
type gcSample struct {
	cycles  uint64
	pauseNs float64
}

// readGC reads the GC cycle count and the total GC stop-the-world time
// (bucket midpoints of the pause histogram) from runtime/metrics.
func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) { // open-ended edge buckets
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			g.pauseNs += float64(c) * (lo + hi) / 2 * 1e9
		}
	}
	return g
}

// gcMetrics reports the GC work between two readings.
func gcMetrics(m map[string]metric, a, b gcSample) {
	m["runtime.gc_cycles"] = metric{float64(b.cycles - a.cycles), "count"}
	m["runtime.gc_pause_ms"] = metric{(b.pauseNs - a.pauseNs) / 1e6, "ms"}
}

// setupRounds is how many times a run sets its environment up; setup_s
// is their median, so one slow round does not move it.
const setupRounds = 9

// timedSetups builds the environment setupRounds times, tearing down all
// but the last, and returns the last with the median build time.
func timedSetups[T any](up func() (T, error), down func(T)) (T, float64, error) {
	var env T
	secs := make([]int64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			down(env)
		}
		start := time.Now()
		var err error
		env, err = up()
		if err != nil {
			return env, 0, err
		}
		secs = append(secs, int64(time.Since(start)))
	}
	return env, quantile(secs, 0.5) / 1e9, nil
}
