package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs out of 1000", same)
	}
}

func TestReseed(t *testing.T) {
	r := New(7)
	first := r.Uint64()
	r.Uint64()
	r.Reseed(7)
	if got := r.Uint64(); got != first {
		t.Fatalf("Reseed did not restore stream: got %d want %d", got, first)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(3)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first outputs")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates too far from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(10)
	for i := 0; i < 10000; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of [0,1): %v", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(17)
	s := make([]int32, 100)
	for i := range s {
		s[i] = int32(i)
	}
	r.Shuffle(s)
	seen := make(map[int32]bool, len(s))
	for _, v := range s {
		if v < 0 || int(v) >= len(s) || seen[v] {
			t.Fatalf("shuffle broke permutation property at %d", v)
		}
		seen[v] = true
	}
}

func TestPerm(t *testing.T) {
	r := New(19)
	out := make([]int32, 50)
	r.Perm(out)
	seen := make(map[int32]bool)
	for _, v := range out {
		if seen[v] {
			t.Fatalf("Perm repeated %d", v)
		}
		seen[v] = true
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
