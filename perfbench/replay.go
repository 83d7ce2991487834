package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/plancache"
	"repro/internal/planstore"
	"repro/internal/server"
	"repro/internal/workloads"
)

// stageNames are the pipeline stages the replay and the ladder time.
var stageNames = []string{"tags", "similarity", "cluster", "balance", "schedule", "encode"}

// stages accumulates pipeline stage costs over computed plans.
type stages struct {
	ms                   map[string]float64 // summed per stage
	plans, chunks        int
	pairsGen, pairsDense int64
}

func newStages() *stages { return &stages{ms: map[string]float64{}} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mapPlan computes the plan the daemon computes for a request with default
// knobs: pipeline.Map, then mapping.PlanOf, one span each under parent.
// The per-stage times and similarity pair counts come from the Stages
// ledger of the result; PlanOf is billed to the encode stage.
func mapPlan(t *tracer, parent int32, scheme pipeline.Scheme, w workloads.Workload, tree *hierarchy.Tree, acc *stages) (mapping.Plan, error) {
	id := t.begin("pipeline.map", parent)
	res, err := pipeline.Map(context.Background(), scheme, w.Prog, pipeline.Config{Tree: tree})
	t.end(id)
	if err != nil {
		return mapping.Plan{}, err
	}
	id = t.begin("mapping.plan_of", parent)
	plan := mapping.PlanOf(res)
	acc.ms["encode"] += ms(t.end(id))
	for _, st := range res.Stages {
		acc.ms[st.Stage] += st.DurationMS
		acc.pairsGen += st.PairsGenerated
		acc.pairsDense += st.PairsDense
	}
	acc.plans++
	acc.chunks += res.NumChunks
	return plan, nil
}

// planCodec stores plans in the wire format, as the daemon's disk tier does.
var planCodec = planstore.Codec[mapping.Plan]{
	Encode: func(p mapping.Plan) ([]byte, error) { return json.Marshal(p) },
	Decode: func(b []byte) (mapping.Plan, error) {
		var p mapping.Plan
		err := json.Unmarshal(b, &p)
		return p, err
	},
}

// replayOut is what the in-process replay measured beyond its spans.
type replayOut struct {
	acc          *stages
	requests     int
	sims         int
	simMS        float64
	simIters     int64
	simDiskReads int64
}

// maxReplay bounds the replayed requests, and so the spans kept in memory.
const maxReplay = 5000

type built struct {
	w    workloads.Workload
	tree *hierarchy.Tree
}

// replay serves the workload's seeded requests again, in process and one
// at a time, through each layer's public function: request decode, spec
// build (memoized like the daemon's), plan key, the memory tier
// (plancache.Cache), the disk tier (planstore.Log) when the workload has
// one, the pipeline on a miss, and response encode, or plan decode plus
// iosim.Run for /v1/simulate. Every request is one root span. A computed
// plan must be byte-identical to the one the daemon served for the key,
// and a simulation must report the daemon's I/O latency.
func (b *bench) replay(t *tracer, budget time.Duration) (*replayOut, error) {
	capacity := 512 // the daemon's default -cache
	var log *planstore.Log[mapping.Plan]
	if b.wl.store {
		capacity = churnCache
		var err error
		log, err = planstore.Open(planstore.Options{
			Dir: filepath.Join(b.dir, "replay-store"), Schema: uint32(mapping.PlanSchemaVersion),
		}, planCodec)
		if err != nil {
			return nil, err
		}
		defer log.Close()
	}
	mem := plancache.New[mapping.Plan](capacity)
	for _, r := range b.wl.warmSet {
		var p mapping.Plan
		if err := json.Unmarshal(b.plans[r.key], &p); err != nil {
			return nil, fmt.Errorf("replay: warm plan %.12s: %w", r.key, err)
		}
		k, err := plancache.ParseKey(r.key)
		if err != nil {
			return nil, err
		}
		if log != nil {
			log.Put(k, p)
		} else {
			mem.Put(k, p)
		}
	}
	if log != nil {
		if err := log.Sync(); err != nil {
			return nil, err
		}
	}

	memo := map[string]built{}
	out := &replayOut{acc: newStages()}
	start := time.Now()
	for i := 0; i < maxReplay && (i < 4 || time.Since(start) < budget); i++ {
		r := b.wl.next(i)
		root := t.begin("request", 0)

		id := t.begin("server.decode", root)
		var sr server.SimRequest
		err := json.Unmarshal(r.body, &sr)
		t.end(id)
		if err != nil {
			return nil, err
		}

		id = t.begin("spec.build", root)
		specJSON, err := json.Marshal(sr.Workload)
		if err != nil {
			return nil, err
		}
		memoKey := string(specJSON) + "|" + sr.Topology
		bw, ok := memo[memoKey]
		if !ok {
			if bw.w, err = r.build(); err == nil {
				bw.tree, err = hierarchy.Parse(sr.Topology)
			}
			memo[memoKey] = bw
		}
		t.end(id)
		if err != nil {
			return nil, err
		}

		id = t.begin("server.plan_key", root)
		key, err := server.PlanKey(sr.MapRequest)
		t.end(id)
		if err != nil {
			return nil, err
		}

		id = t.begin("plancache.get", root)
		plan, hit := mem.Get(key)
		t.end(id)
		if !hit && log != nil {
			id = t.begin("planstore.get", root)
			plan, hit = log.Get(key)
			t.end(id)
			if hit {
				id = t.begin("plancache.put", root)
				mem.Put(key, plan)
				t.end(id)
			}
		}
		if hit != r.cached {
			return nil, fmt.Errorf("replay request %d: plan-cache hit %v, the daemon's was %v", i, hit, r.cached)
		}
		if !hit {
			plan, err = mapPlan(t, root, pipeline.Scheme(sr.Scheme), bw.w, bw.tree, out.acc)
			if err != nil {
				return nil, err
			}
			id = t.begin("plancache.put", root)
			mem.Put(key, plan)
			t.end(id)
			if log != nil {
				id = t.begin("planstore.put", root)
				log.Put(key, plan)
				t.end(id)
			}
		}

		var simIO float64
		var resp any = server.MapResponse{Plan: plan, CacheKey: r.key, Cached: hit}
		if r.path == "/v1/simulate" {
			id = t.begin("plan.decode", root)
			asg, err := plan.Assignment()
			t.end(id)
			if err != nil {
				return nil, err
			}
			id = t.begin("iosim.run", root)
			m, err := iosim.Run(bw.tree, bw.w.Prog, asg, iosim.DefaultParams())
			d := t.end(id)
			if err != nil {
				return nil, err
			}
			simIO = m.IOLatencyMS()
			out.sims++
			out.simMS += ms(d)
			out.simIters += m.Iterations
			out.simDiskReads += m.DiskReads
			resp = server.SimResponse{Scheme: sr.Scheme, IOLatencyMS: m.IOLatencyMS(), ExecTimeMS: m.ExecTimeMS(),
				DiskReads: m.DiskReads, Iterations: m.Iterations, CacheKey: r.key, Cached: hit}
		}
		id = t.begin("server.encode", root)
		_, err = json.Marshal(resp)
		t.end(id)
		if err != nil {
			return nil, err
		}
		t.end(root)
		out.requests++

		// The checks against the daemon's answers run outside the request's
		// span: they are the benchmark's work, not a layer's.
		if !hit {
			raw, err := json.Marshal(plan)
			if err != nil {
				return nil, err
			}
			b.ver.mu.Lock()
			want, served := b.ver.seen[r.key]
			b.ver.mu.Unlock()
			if served && sha256.Sum256(raw) != want {
				return nil, fmt.Errorf("replay request %d: plan %.12s differs from the daemon's", i, r.key)
			}
		}
		if r.path == "/v1/simulate" {
			b.mu.Lock()
			want, ok := b.simIO[r.key]
			b.mu.Unlock()
			if ok && want != simIO {
				return nil, fmt.Errorf("replay request %d: io_latency_ms %g, the daemon's was %g", i, simIO, want)
			}
		}
	}
	return out, nil
}

// The stage ladder maps the parbench stream mix at four sizes (640, 1280,
// 2560 and 5120 iteration chunks) and fits each stage's time as a power of
// the chunk count. The exponents do not depend on the host.
var (
	ladderExtents = []int64{1024, 2048, 4096, 8192}
	ladderReps    = []int{3, 3, 2, 1}
)

type ladderRow struct {
	chunks int
	ms     map[string]float64 // median over reps
}

func ladder(t *tracer) ([]ladderRow, map[string]float64, error) {
	tree, err := hierarchy.Parse(paperTopo)
	if err != nil {
		return nil, nil, err
	}
	var rows []ladderRow
	for k, ext := range ladderExtents {
		w, err := workloads.Synthesize(workloads.SynthSpec{Name: "parbench", Passes: 4, Extent: ext,
			Streams: []workloads.StreamSpec{{Stride: 1}, {Stride: 1, Offset: 64}, {Stride: 2, Drift: 8}}})
		if err != nil {
			return nil, nil, err
		}
		samples := map[string][]float64{}
		row := ladderRow{ms: map[string]float64{}}
		for rep := 0; rep < ladderReps[k]; rep++ {
			acc := newStages()
			root := t.begin("ladder", 0)
			_, err := mapPlan(t, root, pipeline.InterProcessorSched, w, tree, acc)
			t.end(root)
			if err != nil {
				return nil, nil, err
			}
			row.chunks = acc.chunks
			for _, s := range stageNames {
				samples[s] = append(samples[s], acc.ms[s])
			}
		}
		for s, v := range samples {
			sort.Float64s(v)
			row.ms[s] = v[(len(v)-1)/2]
		}
		rows = append(rows, row)
	}
	exps := map[string]float64{}
	for _, s := range stageNames {
		var xs, ys []float64
		for _, r := range rows {
			if r.ms[s] > 0 {
				xs = append(xs, math.Log(float64(r.chunks)))
				ys = append(ys, math.Log(r.ms[s]))
			}
		}
		exps[s] = slope(xs, ys)
	}
	return rows, exps, nil
}

// slope is the least-squares slope of ys against xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
