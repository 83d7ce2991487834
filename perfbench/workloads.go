package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/hierarchy"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/workloads"
)

// paperTopo is the paper's evaluation hierarchy: 16 storage, 32 I/O and 64
// compute nodes with caches of 16, 8 and 4 chunks.
const paperTopo = "16/32/64@16,8,4"

// topos are cmd/loadgen's three topologies plus the paper's.
var topos = []string{"1/2/4@16,8,4", "2/4/8@16,8,4", "4/8/16@16,8,4", paperTopo}

// request is one generated request: the bytes the daemon sees plus what
// the benchmark needs to check the answer.
type request struct {
	path    string // /v1/map or /v1/simulate
	body    []byte
	req     server.MapRequest
	key     string // plan-cache key the response must carry
	clients int    // client count of the topology
	cached  bool   // value the response's cached flag must have
}

// build constructs the workload the request names, as the daemon does.
func (r *request) build() (workloads.Workload, error) {
	switch w := r.req.Workload; {
	case w.App != "":
		return workloads.Get(w.App, 1)
	case w.Synth != nil:
		return workloads.Synthesize(*w.Synth)
	default:
		return workloads.SynthesizeStencil(*w.Stencil)
	}
}

var (
	clientsMu sync.Mutex
	clientsOf = map[string]int{}
)

func topoClients(topo string) (int, error) {
	clientsMu.Lock()
	defer clientsMu.Unlock()
	if n, ok := clientsOf[topo]; ok {
		return n, nil
	}
	t, err := hierarchy.Parse(topo)
	if err != nil {
		return 0, err
	}
	clientsOf[topo] = t.NumClients()
	return t.NumClients(), nil
}

// newRequest builds a /v1/map (or, with sim, /v1/simulate) request.
func newRequest(spec server.WorkloadSpec, topo string, scheme pipeline.Scheme, sim, cached bool) *request {
	mr := server.MapRequest{Workload: spec, Topology: topo, Scheme: string(scheme)}
	r := &request{path: "/v1/map", req: mr, cached: cached}
	var err error
	if sim {
		r.path = "/v1/simulate"
		r.body, err = json.Marshal(server.SimRequest{MapRequest: mr})
	} else {
		r.body, err = json.Marshal(mr)
	}
	if err != nil {
		panic(err) // plain structs always marshal
	}
	key, err := server.PlanKey(mr)
	if err != nil {
		panic(err)
	}
	r.key = key.String()
	if r.clients, err = topoClients(topo); err != nil {
		panic(err) // only the fixed topologies above are generated
	}
	return r
}

// mapOf returns the /v1/map request for the same plan as r.
func mapOf(r *request) *request {
	return newRequest(r.req.Workload, r.req.Topology, pipeline.Scheme(r.req.Scheme), false, true)
}

// mix is splitmix64 over (seed, i): the per-request random draw, so
// request i has the same content whichever connection sends it.
func mix(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// workload is one traffic mix.
type workload struct {
	name string
	// store runs the daemon on a fresh plan store with a memory tier far
	// smaller than the stored set, and restarts it once in set-up.
	store bool
	// warmSet is what set-up computes (and, with store, persists) before
	// the timed run.
	warmSet []*request
	// next is timed request i.
	next func(i int) *request
}

// flags are the daemon flags the mix needs beyond the defaults.
func (w *workload) flags(storeDir string) []string {
	if !w.store {
		return nil
	}
	return []string{"-store-dir", storeDir, "-cache", fmt.Sprint(churnCache)}
}

// probe lists /v1/map requests for plans the timed run serves, used for
// the handler-versus-wire split.
func (w *workload) probe() []*request {
	if len(w.warmSet) == 0 {
		return []*request{mapOf(w.next(0)), mapOf(w.next(1)), mapOf(w.next(2)), mapOf(w.next(3))}
	}
	var out []*request
	for _, r := range w.warmSet[:8] {
		out = append(out, mapOf(r))
	}
	return out
}

func workloadByName(name string, seed uint64) (*workload, error) {
	switch name {
	case "plan-cold":
		return planCold(seed), nil
	case "serve-hot":
		return serveHot(seed), nil
	case "store-churn":
		return storeChurn(seed), nil
	case "sim-apps":
		return simApps(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want plan-cold, serve-hot, store-churn or sim-apps)", name)
}

// --- plan-cold --------------------------------------------------------

// coldDeck is the request mix of plan-cold: every block of len(coldDeck)
// consecutive requests holds each entry once, in an order the seed
// shuffles, so every seed loads the pipeline with the same work and the
// percentiles compare across seeds. Half the entries are inter, half
// inter-sched. Most requests are 640 to 1300 iteration chunks; the two
// 2560-chunk requests are rare enough that a run still collects more than
// a thousand samples, and large enough that balance and cluster dominate
// their time and set latency_p99_ms.
var coldDeck = func() []func(name string) (server.WorkloadSpec, pipeline.Scheme) {
	var deck []func(string) (server.WorkloadSpec, pipeline.Scheme)
	add := func(n int, f func(name string, v int) server.WorkloadSpec) {
		for k := 0; k < n; k++ {
			k := k
			scheme := pipeline.InterProcessor
			if k%2 == 1 {
				scheme = pipeline.InterProcessorSched
			}
			deck = append(deck, func(name string) (server.WorkloadSpec, pipeline.Scheme) { return f(name, k/2), scheme })
		}
	}
	synth := func(name string, passes, extent int64, streams ...workloads.StreamSpec) server.WorkloadSpec {
		return server.WorkloadSpec{Synth: &workloads.SynthSpec{Name: name, Passes: passes, Extent: extent, Streams: streams}}
	}
	add(76, func(name string, v int) server.WorkloadSpec { // 640 chunks
		return synth(name, 4, 1024, workloads.StreamSpec{Stride: 1}, workloads.StreamSpec{Stride: 2, Drift: 8},
			workloads.StreamSpec{Stride: 1, Offset: 32 * int64(1+v%4), Drift: 4})
	})
	add(10, func(name string, v int) server.WorkloadSpec { // 768 chunks
		return synth(name, 2, 2048, workloads.StreamSpec{Stride: 1}, workloads.StreamSpec{Stride: 1, Offset: 32 * int64(1+v%3)},
			workloads.StreamSpec{Stride: 2, Drift: 8})
	})
	add(6, func(name string, v int) server.WorkloadSpec { // 736 to 1250 chunks
		n := 44 + 4*int64(v%3)
		return server.WorkloadSpec{Stencil: &workloads.StencilSpec{Name: name, Passes: 2, Rows: n, Cols: n,
			Offsets: [][2]int64{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}}}
	})
	add(6, func(name string, v int) server.WorkloadSpec { // 1280 chunks
		return synth(name, 4, 2048, workloads.StreamSpec{Stride: 1}, workloads.StreamSpec{Stride: 1, Offset: 32 * int64(1+v%2)},
			workloads.StreamSpec{Stride: 2, Drift: 8})
	})
	add(2, func(name string, v int) server.WorkloadSpec { // 2560 chunks
		return synth(name, 4, 4096, workloads.StreamSpec{Stride: 1}, workloads.StreamSpec{Stride: 1, Offset: 64},
			workloads.StreamSpec{Stride: 2, Drift: 8})
	})
	return deck
}()

func planCold(seed uint64) *workload {
	next := func(i int) *request {
		spec, scheme := coldDeck[shuffled(seed, i, len(coldDeck))](fmt.Sprintf("pc-%d-%d", seed, i))
		return newRequest(spec, paperTopo, scheme, false, false)
	}
	return &workload{name: "plan-cold", next: next}
}

// shuffled returns which of n deck entries request i gets: every block of
// n consecutive requests visits each entry once, in an order the seed
// shuffles per block, so any long stretch of requests has the deck's mix.
func shuffled(seed uint64, i, n int) int {
	block, pos := i/n, i%n
	perm := make([]int, n)
	for k := range perm {
		perm[k] = k
	}
	for k := n - 1; k > 0; k-- { // Fisher-Yates
		j := int(mix(seed, block*n+k) % uint64(k+1))
		perm[k], perm[j] = perm[j], perm[k]
	}
	return perm[pos]
}

// --- serve-hot --------------------------------------------------------

// hotSet is 16 specs mixing sizes, schemes and topologies: the eight paper
// applications and eight synthetic specs. The seed names the synthetic
// specs and shifts their second stream; requests cycle through the set in
// seeded order.
func hotSet(seed uint64) []*request {
	var out []*request
	schemes := pipeline.Schemes()
	for j, app := range workloads.Names() {
		out = append(out, newRequest(server.WorkloadSpec{App: app}, topos[(j/2)%4], schemes[j%4], false, true))
	}
	for j := 0; j < 8; j++ {
		passes, extent, topo := 2+int64(j%3), int64(256<<(j%3)), topos[j%4]
		if j == 4 {
			// One large intra plan (65536 explicit iterations, about 450 KB
			// of JSON) is a sixteenth of the requests, so latency_p99_ms is
			// the cost of serving it rather than host scheduling noise.
			passes, extent, topo = 8, 8192, paperTopo
		}
		spec := &workloads.SynthSpec{
			Name:    fmt.Sprintf("hot-%d-%d", seed, j),
			Passes:  passes,
			Extent:  extent,
			Streams: []workloads.StreamSpec{{Stride: 1}, {Stride: 1, Offset: 16 * int64(1+mix(seed, j)%4)}, {Stride: 2, Drift: 8}},
		}
		out = append(out, newRequest(server.WorkloadSpec{Synth: spec}, topo, schemes[(j+1)%4], false, true))
	}
	return out
}

func serveHot(seed uint64) *workload {
	hot := hotSet(seed)
	return &workload{
		name:    "serve-hot",
		warmSet: hot,
		next:    func(i int) *request { return hot[shuffled(seed, i, len(hot))] },
	}
}

// --- store-churn ------------------------------------------------------

const (
	storedPlans = 512
	churnCache  = 32 // memory-tier capacity, far below the stored set
)

// smallSpec is a cheap synthetic request: one pipeline compute of about a
// millisecond, so store-churn's time goes to the plan-cache tiers.
func smallSpec(name string, r uint64) *request {
	spec := &workloads.SynthSpec{Name: name, Passes: 2, Extent: 128 * int64(1+r%4),
		Streams: []workloads.StreamSpec{{Stride: 1}, {Stride: 1, Offset: 32 * int64(1+(r>>4)%4)}}}
	scheme := pipeline.InterProcessor
	if (r>>8)&1 == 1 {
		scheme = pipeline.InterProcessorSched
	}
	return newRequest(server.WorkloadSpec{Synth: spec}, topos[(r>>12)%4], scheme, false, true)
}

// storedSpec is a stored plan: an intra mapping of 2048 or 4096
// iterations, cheap to compute in set-up but 12 to 25 KB of explicit
// indices, so a read spends its time decoding the plan from disk and
// encoding it, not in per-request overhead that host noise inflates.
func storedSpec(name string, r uint64) *request {
	spec := &workloads.SynthSpec{Name: name, Passes: 2, Extent: 1024 * int64(1+r%2),
		Streams: []workloads.StreamSpec{{Stride: 1}, {Stride: 1, Offset: 32 * int64(1+(r>>4)%4)}}}
	return newRequest(server.WorkloadSpec{Synth: spec}, topos[(r>>12)%4], pipeline.IntraProcessor, false, true)
}

func storeChurn(seed uint64) *workload {
	stored := make([]*request, storedPlans)
	for j := range stored {
		stored[j] = storedSpec(fmt.Sprintf("sc-%d-%d", seed, j), mix(seed^0x5c, j))
	}
	return &workload{
		name:    "store-churn",
		store:   true,
		warmSet: stored,
		// Every tenth request is a new spec (one compute plus one
		// write-behind append); the rest read stored plans uniformly.
		next: func(i int) *request {
			r := mix(seed, i)
			if i%10 == 9 {
				req := smallSpec(fmt.Sprintf("sc-new-%d-%d", seed, i), r)
				req.cached = false
				return req
			}
			return stored[r%storedPlans]
		},
	}
}

// --- sim-apps ---------------------------------------------------------

// appPlans is the paper's 8 applications × 4 schemes on the paper topology.
func appPlans(sim bool) []*request {
	var out []*request
	for _, app := range workloads.Names() {
		for _, s := range pipeline.Schemes() {
			out = append(out, newRequest(server.WorkloadSpec{App: app}, paperTopo, s, sim, true))
		}
	}
	return out
}

func simApps(seed uint64) *workload {
	sims := appPlans(true)
	return &workload{
		name:    "sim-apps",
		warmSet: appPlans(false),
		next:    func(i int) *request { return sims[shuffled(seed, i, len(sims))] },
	}
}
