package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// conns is the number of closed-loop client connections: a job launcher
// blocks on its plan before it asks for the next one.
const conns = 2

// bench is the state one benchmark invocation shares across its parts.
type bench struct {
	bin    string // cachemapd binary
	dir    string // scratch directory of this run
	seed   uint64
	wl     *workload
	client *http.Client
	ver    *verifier

	mu    sync.Mutex
	simIO map[string]float64 // io_latency_ms first served per plan key
	// plans holds the raw plan bytes served per key, kept where a later
	// part needs the plan itself (store-churn's stored set).
	plans map[string][]byte
	keep  bool
	// seen maps a response shape to the digest of the bytes before
	// elapsed_ms of a response of that shape that passed every check.
	seen map[seenKey][32]byte
	live *daemon // the running daemon, stopped on exit
}

func newBench(bin, dir string, seed uint64, wl *workload) *bench {
	return &bench{
		bin: bin, dir: dir, seed: seed, wl: wl,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: conns + 2, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		ver:   newVerifier(),
		simIO: map[string]float64{},
		plans: map[string][]byte{},
		seen:  map[seenKey][32]byte{},
	}
}

// outcome is one request's result as the client saw it.
type outcome struct {
	lat    time.Duration // send to last body byte
	end    time.Time
	status int
	body   []byte
	err    error // transport error or failed check
}

// send posts r and reads the whole response into buf, which the returned
// body aliases until the next send into the same buffer.
func (b *bench) send(d *daemon, r *request, buf *bytes.Buffer) outcome {
	t0 := time.Now()
	resp, err := b.client.Post(d.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return outcome{lat: time.Since(t0), end: time.Now(), err: err}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	body := buf.Bytes()
	o := outcome{lat: end.Sub(t0), end: end, status: resp.StatusCode, body: body, err: err}
	if o.err == nil && o.status != http.StatusOK {
		o.err = fmt.Errorf("%s: status %d: %s", r.path, o.status, bytes.TrimSpace(body))
	}
	return o
}

// mapEnvelope is the part of a MapResponse the timed loop reads; the plan
// stays raw so a repeat is checked by digest.
type mapEnvelope struct {
	Plan     json.RawMessage `json:"plan"`
	CacheKey string          `json:"cache_key"`
	Cached   bool            `json:"cached"`
	Degraded string          `json:"degraded"`
}

// check verifies one response: cache key, cached flag, and the plan's
// coverage (map) or the simulation's determinism (simulate).
func (b *bench) check(r *request, body []byte, wantCached bool) error {
	if r.path == "/v1/simulate" {
		var s server.SimResponse
		if err := json.Unmarshal(body, &s); err != nil {
			return fmt.Errorf("decoding simulate response: %w", err)
		}
		if s.CacheKey != r.key || s.Cached != wantCached {
			return fmt.Errorf("simulate %s: cache_key %.12s cached %v, want %.12s cached %v",
				r.req.Workload.App, s.CacheKey, s.Cached, r.key, wantCached)
		}
		if !(s.IOLatencyMS > 0) || s.Iterations <= 0 {
			return fmt.Errorf("simulate %s: io_latency_ms %g over %d iterations", r.req.Workload.App, s.IOLatencyMS, s.Iterations)
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		if prev, ok := b.simIO[r.key]; ok && prev != s.IOLatencyMS {
			return fmt.Errorf("simulate %s/%s: io_latency_ms %g, earlier %g", r.req.Workload.App, r.req.Scheme, s.IOLatencyMS, prev)
		}
		b.simIO[r.key] = s.IOLatencyMS
		return nil
	}
	// A response whose bytes up to elapsed_ms equal those of a response
	// that passed every check below carries the same key, flag and plan.
	fk := seenKey{r.key, wantCached}
	var prefix [32]byte
	i := bytes.LastIndex(body, []byte(`,"elapsed_ms":`))
	fast := i > 0 && !bytes.Contains(body[i:], []byte(`"degraded"`))
	if fast {
		prefix = sha256.Sum256(body[:i])
		b.mu.Lock()
		prev, ok := b.seen[fk]
		b.mu.Unlock()
		if ok && prev == prefix {
			return nil
		}
	}
	var env mapEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("decoding map response: %w", err)
	}
	if env.CacheKey != r.key || env.Cached != wantCached || env.Degraded != "" {
		return fmt.Errorf("map: cache_key %.12s cached %v degraded %q, want %.12s cached %v",
			env.CacheKey, env.Cached, env.Degraded, r.key, wantCached)
	}
	if b.keep {
		b.mu.Lock()
		b.plans[r.key] = append([]byte(nil), env.Plan...)
		b.mu.Unlock()
	}
	if err := b.ver.check(r, env.Plan); err != nil {
		return err
	}
	if fast {
		b.mu.Lock()
		b.seen[fk] = prefix
		b.mu.Unlock()
	}
	return nil
}

// seenKey names a response shape: plan key and cached flag.
type seenKey struct {
	key    string
	cached bool
}

// loopResult is what a closed-loop window measured.
type loopResult struct {
	lat       []time.Duration // every successful request
	ends      []time.Time     // completion time of each lat sample
	start     time.Time
	inWindow  int // successes that ended before the deadline
	attempted int
	failed    int
	computes  int // requests that had to run the pipeline
	window    time.Duration
	errs      []error
	next      int // first request index not sent
}

// loop drives the daemon from conns closed-loop connections for dur,
// starting at request index first. With tr set, each request records
// client-side spans.
func (b *bench) loop(d *daemon, first int, dur time.Duration, tr *tracer) loopResult {
	var (
		idx atomic.Int64
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	idx.Store(int64(first))
	start := time.Now()
	deadline := start.Add(dur)
	res.start = start
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(idx.Add(1) - 1)
				r := b.wl.next(i)
				var root int32
				if tr != nil {
					root = tr.begin("client.request", 0)
				}
				o := b.send(d, r, &buf)
				if tr != nil {
					tr.record("http.roundtrip", root, o.end.Add(-o.lat), o.lat)
				}
				var ck int32
				if tr != nil {
					ck = tr.begin("client.check", root)
				}
				if o.err == nil {
					o.err = b.check(r, o.body, r.cached)
				}
				if tr != nil {
					tr.end(ck)
					tr.end(root)
				}
				mu.Lock()
				res.attempted++
				if !r.cached {
					res.computes++
				}
				if o.err != nil {
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, o.err)
					}
				} else {
					res.lat = append(res.lat, o.lat)
					res.ends = append(res.ends, o.end)
					if !o.end.After(deadline) {
						res.inWindow++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.window = dur
	res.next = int(idx.Load())
	return res
}

// warm serves each request once, sequentially, on a fresh daemon: every
// one must compute and every plan must pass the coverage check.
func (b *bench) warm(d *daemon, reqs []*request) error {
	var buf bytes.Buffer
	for _, r := range reqs {
		o := b.send(d, r, &buf)
		if o.err == nil {
			o.err = b.check(r, o.body, false)
		}
		if o.err != nil {
			return fmt.Errorf("warming: %w", o.err)
		}
	}
	return nil
}

// warmParallel is warm over conns connections.
func (b *bench) warmParallel(d *daemon, reqs []*request) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, conns)
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || errs[c] != nil {
					return
				}
				errs[c] = b.warm(d, reqs[i:i+1])
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fillAndRestart is store-churn's set-up: fill the disk tier with the
// stored set, wait for the write-behind queue to land every record,
// restart the daemon on the same store and wait for its warm scan.
func (b *bench) fillAndRestart(d *daemon, dir string, stored []*request) (*daemon, error) {
	if err := b.warmParallel(d, stored); err != nil {
		return d, err
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		c, err := d.scrape()
		if err != nil {
			return d, err
		}
		if int(c["cachemapd_planstore_records"]) >= len(stored) && c["cachemapd_planstore_write_queue_depth"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			return d, fmt.Errorf("plan store holds %v of %d records after 30s", c["cachemapd_planstore_records"], len(stored))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	nd, err := startDaemon(b.bin, d.log+".restart", b.client, b.wl.flags(dir)...)
	if err != nil {
		return nil, err
	}
	c, err := nd.scrape()
	if err != nil {
		return nd, err
	}
	if got := int(c["cachemapd_planstore_warm_records"]); got != len(stored) {
		return nd, fmt.Errorf("warm scan restored %d records, want %d", got, len(stored))
	}
	return nd, nil
}

// quantile returns the q-quantile (nearest rank) of sorted durations, in ms.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// groupSize is the fewest latency samples one percentile group holds, so
// each group's p99 has at least ten samples beyond it.
const groupSize = 1000

// latencyQuantile splits the samples, in completion order, into equal
// consecutive groups of at least groupSize and returns the interquartile
// mean over the groups of each group's q-quantile, in ms. A host stall
// that hits one part of the run then moves one group, not the result.
func (r *loopResult) latencyQuantile(q float64) float64 {
	idx := make([]int, len(r.lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.ends[idx[a]].Before(r.ends[idx[b]]) })
	groups := max(1, len(idx)/groupSize)
	var per []float64
	for g := 0; g < groups; g++ {
		var ds []time.Duration
		for _, i := range idx[g*len(idx)/groups : (g+1)*len(idx)/groups] {
			ds = append(ds, r.lat[i])
		}
		per = append(per, quantile(sortDurations(ds), q))
	}
	return midMean(per)
}

// perSlice counts the successes that ended in each of n equal slices of
// the window.
func (r *loopResult) perSlice(n int) []int {
	counts := make([]int, n)
	slice := r.window / time.Duration(n)
	for _, e := range r.ends {
		if k := int(e.Sub(r.start) / slice); k >= 0 && k < n {
			counts[k]++
		}
	}
	return counts
}

// midMean is the interquartile mean of v: the mean of the values left
// after dropping the lowest and the highest quarter. Like the median it
// ignores the slices a host stall or burst hit, but it averages more of
// the rest.
func midMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortDurations(v []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
