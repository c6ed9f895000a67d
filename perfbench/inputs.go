package main

import (
	"math/rand"

	"emap/internal/dsp"
	"emap/internal/synth"
)

// All inputs come from the synthesiser before anything is timed; the
// program under test only ever receives the generated recordings and
// windows. The mega-databases are the deployment's fixed data: they
// are drawn from storeSeed (the paper's year), so every run searches
// the same stores. The run's seed draws everything the edges send —
// which windows, from which crops, in which order — from the same
// archetypes, so uploads match the stores the way held-out patient
// data would.
const storeSeed = 2020

const (
	rate      = 256
	windowLen = 256
)

// corpus returns the raw recordings of a ward mega-database: for every
// class and archetype, `instances` crops (three times as many for the
// normal class, as public corpora are normal-dominated), spread so
// together they cover the whole canonical recording.
func corpus(g *synth.Generator, archetypes, instances int) []*synth.Recording {
	var recs []*synth.Recording
	for _, class := range synth.Classes {
		n := instances
		if class == synth.Normal {
			n *= 3
		}
		for arch := 0; arch < archetypes; arch++ {
			for i := 0; i < n; i++ {
				step := func(span int) int {
					if n <= 1 {
						return 0
					}
					return i * span / (n - 1)
				}
				if class == synth.Seizure {
					off := synth.PreictalAt*rate + step((synth.SeizureDur-synth.PreictalAt-120)*rate)
					recs = append(recs, g.Instance(class, arch, synth.InstanceOpts{OffsetSamples: off, DurSeconds: 120}))
				} else {
					off := step((synth.NormalDur - 90) * rate)
					recs = append(recs, g.Instance(class, arch, synth.InstanceOpts{OffsetSamples: off, DurSeconds: 90}))
				}
			}
		}
	}
	return recs
}

// heldOut draws a fresh recording (never stored) of a class, cropped
// at a seeded position: seizure inputs start a seeded lead before the
// onset (at least seconds, so they end at or before it); other classes
// are crops anywhere in the canonical recording.
func heldOut(g *synth.Generator, rnd *rand.Rand, class synth.Class, arch int, seconds int) *synth.Recording {
	if class == synth.Seizure {
		lead := seconds + rnd.Intn(synth.OnsetAt-synth.PreictalAt-seconds+1)
		return g.SeizureInput(arch, float64(lead), float64(seconds))
	}
	off := rnd.Intn((synth.NormalDur - seconds) * rate)
	return g.Instance(class, arch, synth.InstanceOpts{OffsetSamples: off, DurSeconds: float64(seconds)})
}

// edgeFilter is the acquisition band-pass every device applies.
func edgeFilter() *dsp.FIR {
	fir, err := dsp.DesignBandpass(100, 11, 40, rate, dsp.Hamming)
	if err != nil {
		panic(err)
	}
	return fir
}

// uploadWindows returns n distinct band-passed one-second windows as a
// device uploads them, drawn round-robin from all four classes and
// every archetype, in a seeded order. The first window of each
// recording carries the filter transient and is skipped.
func uploadWindows(g *synth.Generator, rnd *rand.Rand, archetypes, n int) [][]float64 {
	fir := edgeFilter()
	const seconds = 30
	var out [][]float64
	for len(out) < n {
		for _, class := range synth.Classes {
			for arch := 0; arch < archetypes; arch++ {
				f := fir.Apply(heldOut(g, rnd, class, arch, seconds).Samples)
				for s := windowLen; s+windowLen <= len(f); s += windowLen {
					out = append(out, f[s:s+windowLen])
				}
			}
		}
	}
	rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}
