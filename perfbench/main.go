// Command perfbench is cachemapd's end-to-end benchmark. It starts a real
// cachemapd, drives it over loopback HTTP from two closed-loop
// connections with one of four seeded traffic mixes, checks every
// response, and prints the daemon-level metrics; with -trace 1 it instead
// replays the same inputs in process through each layer's public
// functions and prints per-layer metrics. See README.md for the workloads
// and metrics, and run.sh for how it is built and invoked:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed check exits 1.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/workloads"
)

// A timed run sets up from scratch at least minSetups times and goes on
// until setupBudget is spent, at most maxSetups times; setup_s is the
// median, so a cheap set-up is sampled more often.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// cpuSlices is how many equal slices of the timed window throughput and
// CPU per request are measured over; the result is their interquartile
// mean.
const cpuSlices = 10

// residueBound is the largest share of traced end-to-end time the layer
// spans may leave unattributed.
const residueBound = 0.05

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "plan-cold, serve-hot, store-churn or sim-apps")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	secs := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced per-layer run instead of the timed run")
	bin := flag.String("daemon", "", "cachemapd binary")
	workdir := flag.String("workdir", ".bench_build/perfbench-runs", "directory for daemon logs, plan stores and traces")
	flag.Parse()

	if err := run(*name, *seed, *secs, *trace == 1, *bin, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, secs float64, traced bool, bin, workdir string) error {
	wl, err := workloadByName(name, seed)
	if err != nil {
		return err
	}
	if bin == "" {
		return errors.New("-daemon is required")
	}
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b := newBench(bin, dir, seed, wl)

	// A signal stops the running daemon before the benchmark exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigs
		b.stopDaemon()
		os.Exit(1)
	}()
	defer b.stopDaemon()

	window := time.Duration(secs * float64(time.Second))
	var res *result
	if traced {
		res, err = b.traced(window, workdir)
	} else {
		res, err = b.timed(window, workdir)
	}
	if err != nil {
		return err
	}
	if err := b.stopDaemon(); err != nil {
		res.Correct = false
		fmt.Println("check failed:", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
	return os.RemoveAll(dir)
}

// stopDaemon stops the daemon the benchmark is running, if any.
func (b *bench) stopDaemon() error {
	b.mu.Lock()
	d := b.live
	b.live = nil
	b.mu.Unlock()
	return d.stop()
}

// setUp starts a daemon for the workload and runs its set-up: warming the
// plans it serves, or filling and restarting the plan store.
func (b *bench) setUp(rep int) (*daemon, time.Duration, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("setup-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	storeDir := filepath.Join(dir, "store")
	t0 := time.Now()
	d, err := startDaemon(b.bin, filepath.Join(dir, "daemon.log"), b.client, b.wl.flags(storeDir)...)
	if err != nil {
		return nil, 0, err
	}
	b.setLive(d)
	b.keep = true
	defer func() { b.keep = false }()
	switch {
	case b.wl.store:
		d, err = b.fillAndRestart(d, storeDir, b.wl.warmSet)
		b.setLive(d)
	case len(b.wl.warmSet) > 0:
		err = b.warm(d, b.wl.warmSet)
	}
	return d, time.Since(t0), err
}

func (b *bench) setLive(d *daemon) {
	b.mu.Lock()
	b.live = d
	b.mu.Unlock()
}

// windowStats is one closed-loop window with the daemon's counters
// around it.
type windowStats struct {
	loopResult
	before, after counters
}

// checkWindow checks what the daemon counted against what the client
// sent, and collects the window's failed requests.
func (b *bench) checkWindow(w windowStats, problems *[]string) {
	for _, err := range w.errs {
		*problems = append(*problems, err.Error())
	}
	if got := delta(w.before, w.after, "cachemapd_pipeline_computes_total"); int(got) != w.computes {
		*problems = append(*problems, fmt.Sprintf("daemon ran the pipeline %v times for %d requests with new keys", got, w.computes))
	}
}

// timed is the timed run: set-up (several times; setup_s is the median),
// one closed-loop window, then the daemon-level metrics.
func (b *bench) timed(window time.Duration, workdir string) (*result, error) {
	var setups []float64
	var spent time.Duration
	var d *daemon
	for rep := 0; rep < maxSetups && (rep < minSetups || spent < setupBudget); rep++ {
		if d != nil {
			if err := b.stopDaemon(); err != nil {
				return nil, err
			}
		}
		var dt time.Duration
		var err error
		if d, dt, err = b.setUp(rep); err != nil {
			return nil, err
		}
		setups = append(setups, dt.Seconds())
		spent += dt
	}

	var w windowStats
	var err error
	if w.before, err = d.scrape(); err != nil {
		return nil, err
	}
	// The daemon's CPU time is read at the bounds of cpuSlices equal
	// slices of the window, so throughput and CPU per request are means
	// over the middle half of the slices.
	cpuAt := make([]time.Duration, cpuSlices+1)
	cpuErr := make(chan error, 1)
	start := time.Now()
	go func() {
		for k := range cpuAt {
			time.Sleep(time.Until(start.Add(time.Duration(k) * window / cpuSlices)))
			cpu, _, err := d.procStats()
			if err != nil {
				cpuErr <- err
				return
			}
			cpuAt[k] = cpu
		}
		cpuErr <- nil
	}()
	w.loopResult = b.loop(d, 0, window, nil)
	if err := <-cpuErr; err != nil {
		return nil, err
	}
	_, rss, err := d.procStats()
	if err != nil {
		return nil, err
	}
	if w.after, err = d.scrape(); err != nil {
		return nil, err
	}
	var problems []string
	b.checkWindow(w, &problems)
	norm, err := b.ioNorm(d)
	if err != nil {
		problems = append(problems, err.Error())
	}
	if err := b.checkDigest(workdir, w.next); err != nil {
		problems = append(problems, err.Error())
	}

	var rps, cpuPerReq []float64
	for k, n := range w.perSlice(cpuSlices) {
		rps = append(rps, float64(n)/(window/cpuSlices).Seconds())
		cpuPerReq = append(cpuPerReq, ms(cpuAt[k+1]-cpuAt[k])/math.Max(1, float64(n)))
	}
	lat := sortDurations(w.lat)
	ok := w.inWindow
	res := &result{Correct: len(problems) == 0, Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metric{
		"setup_s":         {median(setups), "s"},
		"throughput_rps":  {midMean(rps), "1/s"},
		"latency_p50_ms":  {w.latencyQuantile(0.50), "ms"},
		"latency_p99_ms":  {w.latencyQuantile(0.99), "ms"},
		"cpu_ms_per_req":  {midMean(cpuPerReq), "ms"},
		"peak_rss_mb":     {rss, "MB"},
		"io_latency_norm": {norm, "ratio"},
	}}
	fmt.Printf("workload %s seed %d: %d requests (%d in the %.0fs window), %d failed (failed_ratio %.4f), %d latency samples in %d percentile groups of %d+, %d pipeline computes\n",
		b.wl.name, b.seed, w.attempted, ok, window.Seconds(), w.failed, float64(w.failed)/math.Max(1, float64(w.attempted)),
		len(lat), max(1, len(lat)/groupSize), min(len(lat), groupSize), w.computes)
	fmt.Printf("  per-slice throughput_rps %.1f, cpu_ms_per_req %.4g\n", rps, cpuPerReq)
	if len(lat) < groupSize {
		fmt.Printf("  warning: %d latency samples, fewer than the %d that put ten beyond p99\n", len(lat), groupSize)
	}
	printMetrics(res.Metrics, problems)
	return res, nil
}

func printMetrics(m map[string]metric, problems []string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	for _, p := range problems {
		fmt.Println("check failed:", p)
	}
}

// ioNorm is the plan-quality metric: the geometric mean over the paper's 8
// applications of inter-sched io_latency_ms over original io_latency_ms,
// simulated by the daemon on the paper topology after the window. It is
// deterministic, so a change that alters plans shows here.
func (b *bench) ioNorm(d *daemon) (float64, error) {
	var logSum float64
	var buf bytes.Buffer
	for _, app := range workloads.Names() {
		var io [2]float64
		for k, s := range []pipeline.Scheme{pipeline.InterProcessorSched, pipeline.Original} {
			r := newRequest(server.WorkloadSpec{App: app}, paperTopo, s, true, false)
			o := b.send(d, r, &buf)
			if o.err != nil {
				return 0, fmt.Errorf("io_latency_norm: %w", o.err)
			}
			var sr server.SimResponse
			if err := json.Unmarshal(o.body, &sr); err != nil {
				return 0, err
			}
			if !(sr.IOLatencyMS > 0) {
				return 0, fmt.Errorf("io_latency_norm: %s/%s io_latency_ms %g", app, s, sr.IOLatencyMS)
			}
			io[k] = sr.IOLatencyMS
		}
		logSum += math.Log(io[0] / io[1])
	}
	return math.Exp(logSum / float64(len(workloads.Names()))), nil
}

// checkDigest compares the digest of a fixed set of served plans with the
// digest an earlier run of the same daemon build, workload and seed
// recorded.
func (b *bench) checkDigest(workdir string, sent int) error {
	var keys []string
	for _, r := range b.wl.warmSet {
		keys = append(keys, r.key)
	}
	if len(keys) == 0 {
		for i := 0; i < 24 && i < sent; i++ {
			keys = append(keys, b.wl.next(i).key)
		}
	}
	sum, err := b.ver.digest(keys)
	if err != nil {
		return err
	}
	// The record is keyed by the daemon binary and the requests, so other
	// code, or a benchmark that generates other requests for a seed,
	// starts a new record.
	bin, err := os.ReadFile(b.bin)
	if err != nil {
		return err
	}
	id := fmt.Sprintf("%s/%x/%x", b.wl.name, sha256.Sum256(bin), sha256.Sum256([]byte(strings.Join(keys, ","))))
	path := filepath.Join(workdir, "digests.json")
	recorded := map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &recorded); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if prev, ok := recorded[id]; ok {
		if prev != sum {
			return fmt.Errorf("plan digest %.16s for %s differs from an earlier run's %.16s", sum, id, prev)
		}
		return nil
	}
	recorded[id] = sum
	raw, err := json.Marshal(recorded)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
