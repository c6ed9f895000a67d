package main

import (
	"fmt"
	"math"

	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
)

// Tolerances on ω between a reply and the in-process reference. ω
// travels as float32, so a float store's reply differs from the
// reference by float32 rounding plus the golden kernel suite's 1e-9;
// a quantized store's kernel may change with record residency between
// the served scan and the reference, bounded by the golden quant
// suite's 2e-3.
const (
	omegaTolFloat = 1e-6
	omegaTolQuant = 2e-3
)

// refAnswer is the correlation set a correct server must return for a
// window: Algorithm 1 over the store by an in-process searcher, with
// the server's continuation rule applied.
type refAnswer struct {
	entries map[[2]int]float64 // (set, beta) → ω
	store   *mdb.Store
}

// reference computes the expected answer for the dequantized window
// over store with the cloud's search parameters and horizon.
func reference(store *mdb.Store, params search.Params, horizon int, window []float64) (refAnswer, error) {
	res, err := search.NewSearcher(store, params).Algorithm1(window)
	if err != nil {
		return refAnswer{}, err
	}
	sets := store.Sets()
	ref := refAnswer{entries: map[[2]int]float64{}, store: store}
	for _, m := range res.Matches {
		set := sets[m.SetID]
		rec, ok := store.Record(set.RecordID)
		if !ok {
			continue
		}
		if min(horizon, rec.Len()-(set.Start+m.Beta)) < len(window) {
			continue // the server drops matches it cannot continue for one window
		}
		ref.entries[[2]int{m.SetID, m.Beta}] = m.Omega
	}
	return ref, nil
}

// checkReply verifies a correlation set against the reference: the
// same signal-sets at the same offsets, ω within tol, and each
// entry's continuation equal to the stored recording from the matched
// offset (within one quantization step).
func checkReply(ref refAnswer, cs *proto.CorrSet, horizon, windowLen int, tol float64) error {
	if len(cs.Entries) != len(ref.entries) {
		return fmt.Errorf("reply has %d entries, reference %d", len(cs.Entries), len(ref.entries))
	}
	sets := ref.store.Sets()
	for _, e := range cs.Entries {
		key := [2]int{int(e.SetID), int(e.Beta)}
		omega, ok := ref.entries[key]
		if !ok {
			return fmt.Errorf("reply selects set %d at offset %d, absent from the reference", e.SetID, e.Beta)
		}
		if d := math.Abs(float64(e.Omega) - omega); d > tol {
			return fmt.Errorf("set %d: ω %.9f vs reference %.9f", e.SetID, e.Omega, omega)
		}
		set := sets[e.SetID]
		if e.Anomalous != set.Anomalous {
			return fmt.Errorf("set %d: label %v vs stored %v", e.SetID, e.Anomalous, set.Anomalous)
		}
		rec, _ := ref.store.Record(set.RecordID)
		n := min(horizon, rec.Len()-(set.Start+int(e.Beta)))
		want, ok := ref.store.Window(set, int(e.Beta), n)
		if !ok || len(e.Samples) != n {
			return fmt.Errorf("set %d: continuation of %d samples, want %d", e.SetID, len(e.Samples), n)
		}
		for i, c := range e.Samples {
			if math.Abs(float64(c)*float64(e.Scale)-want[i]) > float64(e.Scale) {
				return fmt.Errorf("set %d: continuation sample %d differs from the store", e.SetID, i)
			}
		}
	}
	return nil
}

// gateSearch checks one sampled search. A store that grew while the
// request was in flight may have answered from any epoch between the
// two set counts observed around it, so each candidate prefix is tried
// (sizes lists the epoch sizes the run published).
func gateSearch(store *mdb.Store, params search.Params, horizon int, upload []int16, scale float32,
	cs *proto.CorrSet, sizes []int, tol float64) error {
	window := proto.Dequantize(upload, scale)
	var first error
	for _, n := range sizes {
		ref, err := reference(store.SubsetSets(n), params, horizon, window)
		if err != nil {
			return err
		}
		err = checkReply(ref, cs, horizon, len(window), tol)
		if err == nil {
			return nil
		}
		if first == nil {
			first = err
		}
	}
	if first == nil {
		first = fmt.Errorf("no store epoch to check against")
	}
	return first
}

// gateIngests checks that every acknowledged record is present in its
// owner's store; it returns the IDs that are missing.
func gateIngests(store *mdb.Store, acked []string) []string {
	var missing []string
	for _, id := range acked {
		if store == nil {
			missing = append(missing, id)
			continue
		}
		if _, ok := store.Record(id); !ok {
			missing = append(missing, id)
		}
	}
	return missing
}
