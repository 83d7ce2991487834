package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/itset"
	"repro/internal/mapping"
	"repro/internal/polyhedral"
)

// checkPlan decodes a served plan and checks that the union of its
// per-client work lists covers the nest's executing iterations exactly
// once: no iteration missing, none assigned twice, none outside the nest.
func checkPlan(raw []byte, nest *polyhedral.Nest, clients int) error {
	var p mapping.Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return fmt.Errorf("decoding plan: %w", err)
	}
	asg, err := p.Assignment()
	if err != nil {
		return err
	}
	if len(asg) != clients {
		return fmt.Errorf("plan has %d clients, topology has %d", len(asg), clients)
	}
	var runs []itset.Run
	for _, blocks := range asg {
		for _, b := range blocks {
			if b.Explicit != nil {
				for _, i := range b.Explicit {
					runs = append(runs, itset.Run{Start: i, End: i + 1})
				}
				continue
			}
			runs = append(runs, b.Set.Runs()...)
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Start < runs[j].Start })
	var union itset.Set
	for i, r := range runs {
		if i > 0 && r.Start < runs[i-1].End {
			return fmt.Errorf("iteration %d is assigned more than once", r.Start)
		}
		union.Append(r.Start, r.End)
	}
	if want := iterationSpace(nest); !union.Equal(want) {
		return fmt.Errorf("plan covers %d iterations in %d runs, nest has %d in %d runs",
			union.Count(), union.NumRuns(), want.Count(), want.NumRuns())
	}
	return nil
}

// iterationSpace is the set of box indices of the nest's executing
// iterations (all of the box when the nest has no guards).
func iterationSpace(nest *polyhedral.Nest) itset.Set {
	if len(nest.Guards) == 0 {
		return itset.Interval(0, nest.BoxSize())
	}
	var s itset.Set
	nest.ForEach(func(it []int64) bool {
		idx := nest.IterToIndex(it)
		s.Append(idx, idx+1)
		return true
	})
	return s
}

// verifier remembers the digest of every plan that passed checkPlan, per
// cache key, so a plan served again is checked by comparing bytes with
// the verified copy instead of re-running the coverage check.
type verifier struct {
	mu   sync.Mutex
	seen map[string][32]byte
}

func newVerifier() *verifier { return &verifier{seen: map[string][32]byte{}} }

// check verifies the plan served for req.
func (v *verifier) check(req *request, raw []byte) error {
	sum := sha256.Sum256(raw)
	v.mu.Lock()
	want, ok := v.seen[req.key]
	v.mu.Unlock()
	if ok {
		if sum != want {
			return fmt.Errorf("plan for %s differs from the verified copy served earlier", req.key[:12])
		}
		return nil
	}
	w, err := req.build()
	if err != nil {
		return err
	}
	if err := checkPlan(raw, w.Prog.Nest, req.clients); err != nil {
		return fmt.Errorf("plan for %s: %w", req.key[:12], err)
	}
	v.mu.Lock()
	v.seen[req.key] = sum
	v.mu.Unlock()
	return nil
}

// digest combines the verified plan digests of the given keys, in order.
func (v *verifier) digest(keys []string) (string, error) {
	h := sha256.New()
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, k := range keys {
		sum, ok := v.seen[k]
		if !ok {
			return "", fmt.Errorf("no verified plan for %s", k[:12])
		}
		h.Write(sum[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
