package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/mapping"
	"repro/internal/planstore"
	"repro/internal/server"
)

// traced is the traced run: the same set-up and traffic as the timed run,
// alternating untraced and traced slices, followed by the handler-versus-
// wire probe, the in-process layer replay and the stage ladder.
func (b *bench) traced(window time.Duration, workdir string) (*result, error) {
	d, _, err := b.setUp(0)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var (
		problems              []string
		first                 counters
		last                  counters
		attempted, failed     int
		plainOK, tracedOK     int
		plainTime, tracedTime time.Duration
		idx                   int
	)
	const slices = 10
	for s := 0; s < slices; s++ {
		var w windowStats
		if w.before, err = d.scrape(); err != nil {
			return nil, err
		}
		var t *tracer
		if s%2 == 1 {
			t = tr
		}
		w.loopResult = b.loop(d, idx, window/slices, t)
		if w.after, err = d.scrape(); err != nil {
			return nil, err
		}
		b.checkWindow(w, &problems)
		idx = w.next
		attempted += w.attempted
		failed += w.failed
		if t == nil {
			plainOK += w.inWindow
			plainTime += w.window
		} else {
			tracedOK += w.inWindow
			tracedTime += w.window
		}
		if s == 0 {
			first = w.before
		}
		last = w.after
	}
	admission, err := b.admissionP99(d)
	if err != nil {
		return nil, err
	}

	m := map[string]float64{}
	split, err := b.splitProbe(d)
	if err != nil {
		return nil, err
	}
	for k, v := range split {
		m[k] = v
	}
	m["planstore.scan_s"] = 0
	if b.wl.store {
		if m["planstore.scan_s"], err = b.scanSeconds(); err != nil {
			return nil, err
		}
	}
	if err := b.stopDaemon(); err != nil {
		return nil, err
	}

	rep, err := b.replay(tr, window/3)
	if err != nil {
		problems = append(problems, err.Error())
		rep = &replayOut{acc: newStages()}
	}
	rows, exps, err := ladder(tr)
	if err != nil {
		return nil, err
	}

	lookups := delta(first, last, "cachemapd_plan_cache_hits_total") + delta(first, last, "cachemapd_plan_cache_misses_total")
	m["plancache.hit_ratio"] = ratio(delta(first, last, "cachemapd_plan_cache_hits_total"), lookups)
	m["plancache.evictions"] = delta(first, last, "cachemapd_plan_cache_evictions_total")
	m["plancache.computes"] = delta(first, last, "cachemapd_pipeline_computes_total")
	m["planstore.disk_hit_ratio"] = ratio(delta(first, last, "cachemapd_planstore_disk_hits_total"), lookups)
	m["planstore.queue_drops"] = delta(first, last, "cachemapd_planstore_write_queue_drops_total")
	m["planstore.compactions"] = delta(first, last, "cachemapd_planstore_compactions_total")
	m["server.shed_total"] = delta(first, last, "cachemapd_admission_shed_total")
	m["server.admission_wait_ms"] = admission

	m["spec.build_us"] = medianUS(tr.durations("spec.build"))
	m["server.plan_key_us"] = medianUS(tr.durations("server.plan_key"))
	m["plancache.get_us"] = medianUS(tr.durations("plancache.get"))
	m["planstore.get_us"] = medianUS(tr.durations("planstore.get"))
	m["planstore.put_us"] = medianUS(tr.durations("planstore.put"))
	m["plan.decode_us"] = medianUS(tr.durations("plan.decode"))

	acc := rep.acc
	var pipeTotal float64
	for _, s := range stageNames {
		m["pipeline."+s+"_ms"] = acc.ms[s] / math.Max(1, float64(acc.plans))
		pipeTotal += acc.ms[s]
	}
	m["pipeline.iteration_chunks"] = float64(acc.chunks) / math.Max(1, float64(acc.plans))
	m["similarity.pairs_ratio"] = ratio(float64(acc.pairsGen), float64(acc.pairsDense))
	m["pipeline.balance_cluster_share"] = ratio(acc.ms["balance"]+acc.ms["cluster"], pipeTotal)
	for _, s := range []string{"tags", "similarity", "cluster", "balance", "schedule"} {
		m["pipeline."+s+"_exp"] = exps[s]
	}
	m["iosim.run_ms"] = rep.simMS / math.Max(1, float64(rep.sims))
	m["iosim.iterations_per_ms"] = ratio(float64(rep.simIters), rep.simMS)
	m["iosim.disk_reads"] = float64(rep.simDiskReads) / math.Max(1, float64(rep.sims))

	m["trace.unattributed_share"] = tr.residue("request")
	plainRPS := float64(plainOK) / plainTime.Seconds()
	m["trace.overhead_share"] = 1 - (float64(tracedOK)/tracedTime.Seconds())/plainRPS
	if m["trace.unattributed_share"] > residueBound {
		problems = append(problems, fmt.Sprintf("layer spans leave %.1f%% of traced time unattributed (bound %.0f%%)",
			100*m["trace.unattributed_share"], 100*residueBound))
	}

	spanFile := filepath.Join(workdir, "trace-"+b.wl.name+".json")
	if err := tr.writeFile(spanFile); err != nil {
		return nil, err
	}

	res := &result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for k, v := range m {
		res.Metrics[k] = metric{v, unitOf(k)}
	}
	fmt.Printf("workload %s seed %d traced: %d requests, %d failed, %d replayed in process, %d plans computed in the replay; spans in %s\n",
		b.wl.name, b.seed, attempted, failed, rep.requests, acc.plans, spanFile)
	fmt.Println("  stage ladder (parbench streams, inter-sched, ms per stage):")
	for _, r := range rows {
		fmt.Printf("    %5d chunks:", r.chunks)
		for _, s := range stageNames {
			fmt.Printf(" %s %.1f", s, r.ms[s])
		}
		fmt.Println()
	}
	printMetrics(res.Metrics, problems)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "iterations_per_ms"):
		return "1/ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_exp"):
		return "exponent"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"):
		return "ratio"
	}
	return "count"
}

// admissionP99 is the 99th percentile of the admission wait the daemon
// recorded in its most recent request events.
func (b *bench) admissionP99(d *daemon) (float64, error) {
	resp, err := b.client.Get(d.base + "/debug/events")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var ev struct {
		Events []server.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		return 0, fmt.Errorf("/debug/events: %w", err)
	}
	var waits []time.Duration
	for _, e := range ev.Events {
		if e.Path == "/v1/map" || e.Path == "/v1/simulate" {
			waits = append(waits, time.Duration(e.AdmissionWaitMS*float64(time.Millisecond)))
		}
	}
	return quantile(sortDurations(waits), 0.99), nil
}

// probeReps is how many times the split probe serves each warm plan.
const probeReps = 20

// splitProbe separates a warm /v1/map hit into the server's handler time
// (Handler().ServeHTTP into a ResponseRecorder, in process), the wire
// (the daemon's round trip minus the handler time) and the client's JSON
// decode, on plans the workload serves.
func (b *bench) splitProbe(d *daemon) (map[string]float64, error) {
	reqs := b.wl.probe()
	var rt []time.Duration
	var buf bytes.Buffer
	for _, r := range reqs {
		if o := b.send(d, r, &buf); o.err != nil { // make the plan warm
			return nil, o.err
		}
		for k := 0; k < probeReps; k++ {
			o := b.send(d, r, &buf)
			if o.err == nil {
				o.err = b.check(r, o.body, true)
			}
			if o.err != nil {
				return nil, fmt.Errorf("split probe: %w", o.err)
			}
			rt = append(rt, o.lat)
		}
	}

	srv, err := server.NewServer(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	var handler, decode, encode []time.Duration
	var size []time.Duration // response bytes, sorted like durations
	for _, r := range reqs {
		for k := -1; k < probeReps; k++ {
			rec := httptest.NewRecorder()
			hr := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
			t0 := time.Now()
			h.ServeHTTP(rec, hr)
			dt := time.Since(t0)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("in-process %s: status %d: %s", r.path, rec.Code, rec.Body.Bytes())
			}
			if k < 0 {
				continue // the first call computes the plan
			}
			handler = append(handler, dt)
			size = append(size, time.Duration(rec.Body.Len()))
			var resp server.MapResponse
			t0 = time.Now()
			err := json.Unmarshal(rec.Body.Bytes(), &resp)
			decode = append(decode, time.Since(t0))
			if err != nil {
				return nil, err
			}
			if !resp.Cached {
				return nil, errors.New("in-process probe: warm request was not a plan-cache hit")
			}
			t0 = time.Now()
			_, err = json.Marshal(resp)
			encode = append(encode, time.Since(t0))
			if err != nil {
				return nil, err
			}
		}
	}
	hu := medianUS(handler)
	return map[string]float64{
		"server.handler_us":     hu,
		"http.transport_us":     medianUS(rt) - hu,
		"client.decode_us":      medianUS(decode),
		"server.encode_us":      medianUS(encode),
		"server.response_bytes": float64(sortDurations(size)[len(size)/2]),
	}, nil
}

// scanSeconds times planstore.Open's verifying start-up scan over a copy
// of the daemon's plan log (median of three opens).
func (b *bench) scanSeconds() (float64, error) {
	src := filepath.Join(b.dir, "setup-0", "store", "plans.log")
	raw, err := os.ReadFile(src)
	if err != nil {
		return 0, err
	}
	var ds []time.Duration
	for k := 0; k < 3; k++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("scan-%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(dir, "plans.log"), raw, 0o644); err != nil {
			return 0, err
		}
		t0 := time.Now()
		log, err := planstore.Open(planstore.Options{Dir: dir, Schema: uint32(mapping.PlanSchemaVersion), CompactRatio: -1}, planstore.Codec[json.RawMessage]{
			Encode: func(v json.RawMessage) ([]byte, error) { return v, nil },
			Decode: func(b []byte) (json.RawMessage, error) { return b, nil },
		})
		ds = append(ds, time.Since(t0))
		if err != nil {
			return 0, err
		}
		if n := log.Stats().WarmRecords; n < storedPlans {
			log.Close()
			return 0, fmt.Errorf("scan restored %d records, want at least %d", n, storedPlans)
		}
		log.Close()
	}
	return quantile(sortDurations(ds), 0.5) / 1e3, nil
}
