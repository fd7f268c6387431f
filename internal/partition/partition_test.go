package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"brepartition/internal/bregman"
	"brepartition/internal/dataset"
)

func TestEqualPartitioning(t *testing.T) {
	parts := Equal(10, 3)
	if err := Validate(parts, 10); err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
	// Contiguity.
	for _, dims := range parts {
		for i := 1; i < len(dims); i++ {
			if dims[i] != dims[i-1]+1 {
				t.Fatalf("non-contiguous: %v", dims)
			}
		}
	}
}

func TestEqualClamping(t *testing.T) {
	if got := len(Equal(5, 99)); got != 5 {
		t.Fatalf("m>d should clamp to d, got %d parts", got)
	}
	if got := len(Equal(5, 0)); got != 1 {
		t.Fatalf("m<1 should clamp to 1, got %d", got)
	}
}

func TestEqualIsPartitionProperty(t *testing.T) {
	f := func(dRaw, mRaw uint8) bool {
		d := int(dRaw)%64 + 1
		m := int(mRaw)%64 + 1
		return Validate(Equal(d, m), d) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		parts [][]int
		d     int
	}{
		{"missing", [][]int{{0, 1}}, 3},
		{"dup", [][]int{{0, 1}, {1, 2}}, 3},
		{"range", [][]int{{0, 5}}, 3},
		{"empty-sub", [][]int{{}, {0, 1, 2}}, 3},
	}
	for _, c := range cases {
		if Validate(c.parts, c.d) == nil {
			t.Errorf("%s: Validate accepted invalid partition", c.name)
		}
	}
}

func genCorrelated(n, d int, seed int64) [][]float64 {
	// Pairs of dimensions (2i, 2i+1) are strongly correlated.
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := 0; j < d; j += 2 {
			base := rng.NormFloat64()
			p[j] = base
			if j+1 < d {
				p[j+1] = base + 0.05*rng.NormFloat64()
			}
		}
		pts[i] = p
	}
	return pts
}

func TestPCCPIsValidPartition(t *testing.T) {
	pts := genCorrelated(500, 12, 1)
	for _, m := range []int{1, 2, 3, 4, 6, 12} {
		parts := PCCP(pts, m, 0, 7)
		if err := Validate(parts, 12); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if len(parts) > m {
			t.Fatalf("m=%d: got %d partitions", m, len(parts))
		}
	}
}

func TestPCCPSeparatesCorrelatedPairs(t *testing.T) {
	// With M=2 and perfectly paired dims, each pair should be split
	// across the two partitions.
	pts := genCorrelated(2000, 8, 2)
	parts := PCCP(pts, 2, 0, 3)
	if len(parts) != 2 {
		t.Fatalf("want 2 partitions, got %d", len(parts))
	}
	inFirst := map[int]bool{}
	for _, j := range parts[0] {
		inFirst[j] = true
	}
	split := 0
	for j := 0; j < 8; j += 2 {
		if inFirst[j] != inFirst[j+1] {
			split++
		}
	}
	if split < 3 {
		t.Fatalf("only %d of 4 correlated pairs were separated: %v", split, parts)
	}
}

func TestAbsCorrelationMatrixProperties(t *testing.T) {
	pts := genCorrelated(300, 6, 3)
	corr := AbsCorrelationMatrix(pts, 0, 1)
	for a := 0; a < 6; a++ {
		if corr[a][a] != 1 {
			t.Fatalf("diagonal not 1")
		}
		for b := 0; b < 6; b++ {
			if corr[a][b] != corr[b][a] {
				t.Fatal("not symmetric")
			}
			if corr[a][b] < 0 || corr[a][b] > 1 {
				t.Fatalf("out of range: %g", corr[a][b])
			}
		}
	}
	// The built-in pairs must show high |r|.
	if corr[0][1] < 0.9 {
		t.Fatalf("pair correlation = %g, want > 0.9", corr[0][1])
	}
}

func TestPCCPSampleBound(t *testing.T) {
	pts := genCorrelated(5000, 8, 4)
	parts := PCCP(pts, 4, 100, 5) // sample only 100 points
	if err := Validate(parts, 8); err != nil {
		t.Fatal(err)
	}
}

func testPoints(tb testing.TB, n int) [][]float64 {
	tb.Helper()
	spec, err := dataset.PaperSpec("audio", 0.05)
	if err != nil {
		tb.Fatal(err)
	}
	spec.N = n
	ds, err := dataset.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return ds.Points
}

func TestFitCostModel(t *testing.T) {
	pts := testPoints(t, 800)
	model, err := FitCostModel(bregman.Exponential{}, pts, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(model.Alpha > 0 && model.Alpha < 1) {
		t.Fatalf("alpha = %g, want (0,1)", model.Alpha)
	}
	if model.A <= 0 || model.Beta <= 0 {
		t.Fatalf("A=%g beta=%g, want positive", model.A, model.Beta)
	}
	if model.N != 800 || model.D != 192 {
		t.Fatalf("model recorded n=%d d=%d", model.N, model.D)
	}
}

func TestFitCostModelTooSmall(t *testing.T) {
	if _, err := FitCostModel(bregman.SquaredEuclidean{}, [][]float64{{1}}, 5, 1); err == nil {
		t.Fatal("want error for n<2")
	}
}

func TestOptimalMWithinRange(t *testing.T) {
	pts := testPoints(t, 500)
	model, err := FitCostModel(bregman.Exponential{}, pts, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 20, 100} {
		m := model.OptimalM(k)
		if m < 1 || m > model.D {
			t.Fatalf("k=%d: M=%d outside [1,%d]", k, m, model.D)
		}
	}
}

func TestOptimalMBeatsNeighbours(t *testing.T) {
	// The chosen rounding must not be worse than the other rounding of
	// the closed form.
	pts := testPoints(t, 500)
	model, err := FitCostModel(bregman.Exponential{}, pts, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	raw := model.TheoremM(1)
	lo := int(math.Floor(raw))
	hi := int(math.Ceil(raw))
	if lo < 1 {
		lo = 1
	}
	if hi < 1 {
		hi = 1
	}
	if hi > model.D {
		hi = model.D
	}
	if lo > model.D {
		lo = model.D
	}
	got := model.OptimalM(1)
	best := math.Min(model.Cost(lo, 1), model.Cost(hi, 1))
	if model.Cost(got, 1) > best+1e-9 {
		t.Fatalf("OptimalM=%d cost %g, best rounding %g", got, model.Cost(got, 1), best)
	}
}

func TestCostMonotoneInPrunedTerm(t *testing.T) {
	// With alpha<1 fixed, the pruned-candidate term must decrease in M.
	model := CostModel{A: 10, Alpha: 0.9, Beta: 0.01, N: 10000, D: 128}
	prev := math.Inf(1)
	for m := 1; m <= 128; m *= 2 {
		pruned := model.Beta * model.A * math.Pow(model.Alpha, float64(m)) * float64(model.N)
		if pruned > prev {
			t.Fatalf("pruned term increased at M=%d", m)
		}
		prev = pruned
	}
}

func TestSweepOptimalConsistent(t *testing.T) {
	model := CostModel{A: 50, Alpha: 0.85, Beta: 0.005, N: 50000, D: 96}
	sweep := model.SweepOptimal(1)
	closed := model.OptimalM(1)
	// The closed form should land within a small neighbourhood of the
	// brute-force optimum (it optimizes a smooth surrogate).
	if diff := sweep - closed; diff < -3 || diff > 3 {
		t.Fatalf("sweep=%d closed=%d diverge", sweep, closed)
	}
	if model.Cost(closed, 1) > 1.05*model.Cost(sweep, 1) {
		t.Fatalf("closed-form cost %g much worse than sweep %g",
			model.Cost(closed, 1), model.Cost(sweep, 1))
	}
}

func TestPCCPSingleDimensionDataset(t *testing.T) {
	pts := [][]float64{{1}, {2}, {3}}
	parts := PCCP(pts, 3, 0, 1)
	if err := Validate(parts, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPCCPSeedVariation(t *testing.T) {
	// §9.3.3: the random first dimension should not change validity; two
	// seeds must both yield valid partitions of the same shape.
	pts := genCorrelated(400, 12, 9)
	a := PCCP(pts, 3, 0, 1)
	b := PCCP(pts, 3, 0, 2)
	if err := Validate(a, 12); err != nil {
		t.Fatal(err)
	}
	if err := Validate(b, 12); err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("partition counts differ across seeds: %d vs %d", len(a), len(b))
	}
}

func TestTheoremMDegenerateModel(t *testing.T) {
	// A model whose pruned term never pays for partitioning must derive
	// M=1 rather than something pathological.
	cm := CostModel{A: 0.001, Alpha: 0.999, Beta: 1e-12, N: 1000, D: 64}
	if m := cm.OptimalM(1); m != 1 {
		t.Fatalf("degenerate model derived M=%d, want 1", m)
	}
}

// TestFitCostModelGoldenBits pins (A, α, β) bit for bit for every
// divergence bregman.All lists, on 1 700 points so the β scan runs at its
// 1 500-point cap. The β loop evaluates φ(x) once per scanned point and
// φ(y), φ′(y) once per sample; summing the same terms in the same order as
// bregman.Distance must leave every bit where it was.
func TestFitCostModelGoldenBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([][]float64, 1700)
	for i := range pts {
		pts[i] = make([]float64, 24)
		for j := range pts[i] {
			pts[i][j] = 0.2 + 1.8*rng.Float64()
		}
	}
	golden := map[string][3]uint64{
		"l2":          {0x406268ad4cd3e9f9, 0x3fefe4c99aa39b91, 0x3f7c844f650ae306},
		"mahalanobis": {0x406b9d03f33ddef3, 0x3fefe4c99aa39b91, 0x3f7302df98b1ecae},
		"is":          {0x403612d31e90b7c1, 0x3feec15930da239f, 0x3fabbce598e2ae9e},
		"exp":         {0x406cdaa74b264bcd, 0x3fefdf7362ce64cd, 0x3f724db0647cbb7a},
		"gkl":         {0x4037aa231118f3ac, 0x3fefaba215afaf4a, 0x3fa6b23e47745c65},
		"shannon":     {0x4050d691e476c76f, 0x3fefe5c3865e7419, 0x3f8f3284152baa3e},
		"burg":        {0x403ecfd613f57cd3, 0x3feef7986daf234d, 0x3fa29398d97e7114},
		"lp3":         {0x405c3b6a12ce7c3a, 0x3fefd04b251830e9, 0x3f830f27a7808d61},
	}
	for _, div := range bregman.All() {
		want, ok := golden[div.Name()]
		if !ok {
			t.Fatalf("no golden bits for %s", div.Name())
		}
		m, err := FitCostModel(div, pts, 20, 7)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]uint64{math.Float64bits(m.A), math.Float64bits(m.Alpha), math.Float64bits(m.Beta)}
		if got != want {
			t.Errorf("%s: (A, α, β) bits %#x, want %#x", div.Name(), got, want)
		}
	}
}
