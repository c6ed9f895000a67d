package search

import (
	"math"
	"testing"

	"emap/internal/dataset"
	"emap/internal/mdb"
	"emap/internal/synth"
)

// assertSelectionEquivalent enforces the kernel engine's correctness
// contract: whatever kernel produced a result, its match SELECTION
// (set IDs, betas, top-K membership, in order) must be identical to
// the scalar reference and every ω must agree within 1e-9.
func assertSelectionEquivalent(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if len(got.Matches) != len(ref.Matches) {
		t.Fatalf("%s: %d matches, scalar reference has %d", label, len(got.Matches), len(ref.Matches))
	}
	for i := range ref.Matches {
		r, g := ref.Matches[i], got.Matches[i]
		if g.SetID != r.SetID || g.Beta != r.Beta {
			t.Fatalf("%s: match %d is (set %d, β %d), scalar reference (set %d, β %d)",
				label, i, g.SetID, g.Beta, r.SetID, r.Beta)
		}
		if d := math.Abs(g.Omega - r.Omega); d > 1e-9 {
			t.Fatalf("%s: match %d ω diverges by %g (fft %g, scalar %g)", label, i, d, g.Omega, r.Omega)
		}
	}
}

// assertCountersEqual additionally pins the cost counters — valid
// whenever the two paths visit exactly the same offsets (exhaustive
// scans; the skip walk's trajectory may round differently at the
// 1e-9 scale, so only selection is pinned there).
func assertCountersEqual(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if got.Evaluated != ref.Evaluated || got.Candidates != ref.Candidates {
		t.Fatalf("%s: counters (%d eval, %d cand) diverge from scalar (%d, %d)",
			label, got.Evaluated, got.Candidates, ref.Evaluated, ref.Candidates)
	}
}

// goldenCompareStore runs the full scalar-vs-FFT equivalence battery
// over one store: exhaustive and skip, single-query and mixed-length
// batch.
func goldenCompareStore(t *testing.T, store *mdb.Store, inputs [][]float64) {
	t.Helper()
	scalar := NewSearcher(store, Params{Kernel: KernelScalar})
	fftS := NewSearcher(store, Params{Kernel: KernelFFT})
	auto := NewSearcher(store, Params{Kernel: KernelAuto})

	// Exhaustive: both paths visit every offset, so counters must
	// match exactly too, and the FFT path must actually profile.
	refEx, err := scalar.ExhaustiveN(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name string
		sr   *Searcher
	}{{"fft", fftS}, {"auto", auto}} {
		got, err := s.sr.ExhaustiveN(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if refEx.ProfileSets != 0 {
			t.Fatalf("scalar exhaustive computed %d FFT profiles", refEx.ProfileSets)
		}
		if got.SetPasses > 0 && got.ProfileSets == 0 {
			t.Fatalf("%s exhaustive never used the FFT profile", s.name)
		}
		for i := range inputs {
			label := s.name + "/exhaustive"
			assertSelectionEquivalent(t, label, refEx.Results[i], got.Results[i])
			assertCountersEqual(t, label, refEx.Results[i], got.Results[i])
		}
	}

	// Skip walk: selection must survive the kernel swap even when
	// KernelFFT replays the whole trajectory over profiles.
	refSkip, err := scalar.AlgorithmN(inputs)
	if err != nil {
		t.Fatal(err)
	}
	gotSkip, err := fftS.AlgorithmN(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		assertSelectionEquivalent(t, "fft/skip", refSkip.Results[i], gotSkip.Results[i])
	}
}

// TestGoldenScalarVsFFTSynthetic: the equivalence contract over the
// standard synthetic fixture, including a mixed-length batch so
// several transform sizes are exercised in one scan.
func TestGoldenScalarVsFFTSynthetic(t *testing.T) {
	f := newFixture(t, 2)
	long := f.input(synth.Seizure, 0)
	inputs := [][]float64{
		f.input(synth.Normal, 0),
		long,
		long[:128], // second length group
		f.input(synth.Normal, 2),
	}
	goldenCompareStore(t, f.store, inputs)
}

// TestGoldenScalarVsFFTDegenerate: constant (zero-variance) stored
// regions must correlate as exactly 0 on both kernels — the FFT
// profile may compute a nonzero numerator there, but the degenerate
// guard fires before the division, matching the scalar path.
func TestGoldenScalarVsFFTDegenerate(t *testing.T) {
	g := synth.NewGenerator(synth.Config{Seed: 23, ArchetypesPerClass: 1})
	live := g.Instance(synth.Normal, 0, synth.InstanceOpts{DurSeconds: 12})
	samples := make([]float64, 0, 5000)
	samples = append(samples, live.Samples[:1500]...)
	// A constant plateau spanning several slices: every window inside
	// is degenerate, windows straddling the edges are near-degenerate.
	for i := 0; i < 2200; i++ {
		samples = append(samples, 42.5)
	}
	samples = append(samples, live.Samples[1500:2800]...)
	store := mdb.NewStore()
	if _, err := store.Insert(&mdb.Record{ID: "plateau", Samples: samples}, 500, nil); err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, 1)
	inputs := [][]float64{f.input(synth.Normal, 0), f.input(synth.Normal, 0)[:100]}
	goldenCompareStore(t, store, inputs)
}

// TestGoldenScalarVsFFTEDFStore: the contract over an EDF-derived
// store — recordings round-tripped through the EDF-style container
// (16-bit quantization and all), the ingest path real deployments use.
func TestGoldenScalarVsFFTEDFStore(t *testing.T) {
	g := synth.NewGenerator(synth.Config{Seed: 31, ArchetypesPerClass: 2})
	var recs []*synth.Recording
	for arch := 0; arch < 2; arch++ {
		recs = append(recs,
			g.Instance(synth.Normal, arch, synth.InstanceOpts{DurSeconds: 25}),
			g.Instance(synth.Seizure, arch, synth.InstanceOpts{
				OffsetSamples: (synth.OnsetAt - 15) * 256, DurSeconds: 30}),
		)
	}
	dir := t.TempDir()
	if _, err := dataset.Export(dir, recs); err != nil {
		t.Fatal(err)
	}
	imported, err := dataset.Import(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(imported) != len(recs) {
		t.Fatalf("imported %d recordings, exported %d", len(imported), len(recs))
	}
	store, err := mdb.Build(imported, mdb.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, 1)
	inputs := [][]float64{f.input(synth.Normal, 0), f.input(synth.Seizure, 1)}
	goldenCompareStore(t, store, inputs)
}

// TestAutoKernelCrossoverDeterministic: the auto crossover is
// per-cursor pay-as-you-go, so results must stay invariant across
// worker counts and batch composition even when some sets flip dense
// mid-pass. A four-second query has a dense budget a quarter of a
// one-second query's, so its walks cross it in some sets and stay
// sparse in others; AllOffsets with a low δ keeps every candidate.
func TestAutoKernelCrossoverDeterministic(t *testing.T) {
	f := newFixture(t, 2)
	input := f.inputN(synth.Seizure, 1, 4*256)
	params := Params{Kernel: KernelAuto, Delta: 0.05, AllOffsets: true}
	p1 := params
	p1.Workers = 1
	p8 := params
	p8.Workers = 8
	r1, err := NewSearcher(f.store, p1).Algorithm1(input)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := NewSearcher(f.store, p8).Algorithm1(input)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ProfileSets == 0 || r1.ProfileSets == r1.SetsScanned {
		t.Fatalf("fixture no longer mixes kernels: %d of %d sets flipped dense", r1.ProfileSets, r1.SetsScanned)
	}
	if r1.ProfileSets != r8.ProfileSets || r1.Evaluated != r8.Evaluated {
		t.Fatalf("kernel dispatch varies with workers: profiles %d vs %d, evals %d vs %d",
			r1.ProfileSets, r8.ProfileSets, r1.Evaluated, r8.Evaluated)
	}
	// The same query inside a batch must take the same per-set
	// decisions as it does alone.
	batch, err := NewSearcher(f.store, p8).AlgorithmN([][]float64{f.input(synth.Normal, 0), input})
	if err != nil {
		t.Fatal(err)
	}
	if got := batch.Results[1]; got.ProfileSets != r8.ProfileSets || got.Evaluated != r8.Evaluated {
		t.Fatalf("kernel dispatch varies with batch: profiles %d vs %d, evals %d vs %d",
			got.ProfileSets, r8.ProfileSets, got.Evaluated, r8.Evaluated)
	}
}
